package obs

// Registry is the fixture's metric registry: the names registered.
type Registry struct{ names []string }

// Counter registers a counter called name and returns its index.
func (r *Registry) Counter(name string) int {
	r.names = append(r.names, name)
	return len(r.names) - 1
}

var std Registry

// NewCounter registers a counter called name on the default registry.
func NewCounter(name string) int { return std.Counter(name) }

var (
	cMethod = std.Counter(MetricMethodRegistered)
	cTest   = NewCounter(MetricTestRead)
)
