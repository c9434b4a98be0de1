package obs

// The fixture's series table: which names the reader rule
// (seriesWithoutReader) must flag, and which it must pass.
const (
	// MetricRead is read: cmd/fix prints it besides registering it.
	MetricRead = "read_total"
	// MetricConsumerRead is read by the consumer module only.
	MetricConsumerRead = "consumer_read_total"
	// MetricRegistered is flagged: only cmd/fix's NewCounter call uses it.
	MetricRegistered = "registered_total"
	// MetricMethodRegistered is flagged: only a Registry.Counter call
	// uses it.
	MetricMethodRegistered = "method_registered_total"
	// MetricTestRead is flagged: besides its registration, only a test
	// reads it.
	MetricTestRead = "test_read_total"
)
