package runner

import (
	"sync/atomic"

	"contention/internal/obs"
)

// Pool telemetry. The pool has no wait queue — the goroutine that calls
// Map runs whatever its helpers do not claim — so "queue depth" is
// expressed as the inline/async split: inline tasks ran on the caller,
// async tasks on a helper holding a token. Utilization in the run
// manifest is async/total.
var (
	mTasks = obs.NewCounter(obs.MetricPoolTasks,
		"tasks executed through the pool, inline and async")
	mInline = obs.NewCounter(obs.MetricPoolInline,
		"tasks that ran inline on the goroutine that called Map")
	mAsync = obs.NewCounter(obs.MetricPoolAsync,
		"tasks that ran on a helper goroutine holding a pool token")
	mMaxInFlight = obs.NewGauge(obs.MetricPoolMaxInFlight,
		"high-water mark of concurrently executing tasks")
)

// inFlight counts the tasks executing now; it feeds mMaxInFlight.
var inFlight atomic.Int64

// runTask executes task with telemetry. With telemetry disabled this is
// a direct call — no atomics beyond one flag load.
func runTask(task func(), async bool) {
	if !obs.Enabled() {
		task()
		return
	}
	mTasks.Inc()
	if async {
		mAsync.Inc()
	} else {
		mInline.Inc()
	}
	mMaxInFlight.SetMax(float64(inFlight.Add(1)))
	task()
	inFlight.Add(-1)
}
