package runner

import (
	"sync/atomic"

	"contention/internal/obs"
)

// Pool telemetry: the tasks run and the most that ran at once. Which
// goroutine claims a task — the caller of Map or a helper holding a
// token — is scheduling, not work, so it is not counted.
var (
	mTasks = obs.NewCounter(obs.MetricPoolTasks,
		"tasks executed through the pool")
	mMaxInFlight = obs.NewGauge(obs.MetricPoolMaxInFlight,
		"high-water mark of concurrently executing tasks")
)

// inFlight counts the tasks executing now; it feeds mMaxInFlight.
var inFlight atomic.Int64

// runTask executes task with telemetry. With telemetry disabled this is
// a direct call — no atomics beyond one flag load.
func runTask(task func()) {
	if !obs.Enabled() {
		task()
		return
	}
	mTasks.Inc()
	mMaxInFlight.SetMax(float64(inFlight.Add(1)))
	task()
	inFlight.Add(-1)
}
