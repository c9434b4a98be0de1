package contention

import "contention/internal/monitor"

// Monitor samples a platform and estimates workload parameters: the
// run-time infrastructure around the model that estimates them from
// observation when no descriptors of the application set (§2) are
// available (see internal/monitor).
type Monitor = monitor.Monitor

// NewMonitor creates a load monitor sampling sp every interval seconds.
func NewMonitor(sp *SunParagon, interval float64, maxKeep int) (*Monitor, error) {
	return monitor.New(sp, interval, maxKeep)
}
