package runner

import (
	"time"

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
	mInFlight = obs.NewGauge(obs.MetricPoolInFlight,
		"tasks currently executing")
	mMaxInFlight = obs.NewGauge(obs.MetricPoolMaxInFlight,
		"high-water mark of concurrently executing tasks")
	mTaskSeconds = obs.NewHistogram(obs.MetricPoolTaskSeconds,
		"per-task wall time in seconds", obs.DefaultSecondsBuckets())
)

// runTask executes task with telemetry. With telemetry disabled this is
// a direct call — no clock reads, no atomics beyond one flag load.
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
	mInFlight.Add(1)
	mMaxInFlight.SetMax(mInFlight.Value())
	start := time.Now()
	task()
	mTaskSeconds.Observe(time.Since(start).Seconds())
	mInFlight.Add(-1)
}
