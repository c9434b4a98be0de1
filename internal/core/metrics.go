package core

import "contention/internal/obs"

// Hot-path telemetry. Every handle is a package-level atomic; recording
// is a single flag load when telemetry is disabled, so the
// PredictComm/PredictComp 0 allocs/op contract (alloc_test.go) holds
// with instrumentation compiled in.
var (
	mPredictComm = obs.NewCounter(obs.MetricPredictComm,
		"communication cost predictions evaluated")
	mPredictComp = obs.NewCounter(obs.MetricPredictComp,
		"computation cost predictions evaluated")
	mPredictDegraded = obs.NewCounter(obs.MetricPredictDegraded,
		"robust predictions that fell back to the p+1 worst case")
	mPredictBatch = obs.NewHistogram(obs.MetricPredictBatch,
		"grid sizes of batched predictions", obs.DefaultSizeBuckets())
	mSurfaceHits = obs.NewCounterVec(obs.MetricSurfaceHits,
		"slowdowns served from the precomputed surface", "kind")
	mSurfaceMisses = obs.NewCounterVec(obs.MetricSurfaceMisses,
		"Try lookups that fell past the surface (off-class, out of range, or invalidated)", "kind")
	mSurfaceHitComm  = mSurfaceHits.With("comm")
	mSurfaceHitComp  = mSurfaceHits.With("comp")
	mSurfaceMissComm = mSurfaceMisses.With("comm")
	mSurfaceMissComp = mSurfaceMisses.With("comp")
)
