package main

// The metric and workload tables. BENCHMARK.json at the repository root
// repeats the names, units, directions and bounds; smoke_test.go fails
// when the two disagree.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// endToEnd lists what a user of the system sees, per workload. Times
// are steady levels (see steady), counts and sizes medians over the
// measured windows of one run.
//
// failed_share of the issue's table is not here: it is 0 on a healthy
// run, and the driver's contract carries it as the result's own
// attempted/failed/correct keys (bench.failed_share repeats it among
// the per-layer metrics).
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "model_err_pct", Unit: "%", Better: "lower", Bound: 0.02},
}

// perLayer lists the single-layer metrics of a traced run. Ladder
// metrics are timed on fixed counts of inputs and do not depend on the
// workload; the others (marked "windows") are taken from the traced
// windows of the workload being run and read 0 where the workload does
// not touch the layer.
var perLayer = []metricDef{
	{Name: "prob.dist_p4_ns", Unit: "ns", Better: "lower", Moves: "throughput_ops_s, cpu_us_per_op on lib_cold_sweep; nothing on serve_fast_bin"},
	{Name: "prob.dist_p16_ns", Unit: "ns", Better: "lower", Moves: "as prob.dist_p4_ns"},
	{Name: "prob.dist_p64_ns", Unit: "ns", Better: "lower", Moves: "as prob.dist_p4_ns"},
	{Name: "prob.add_remove_ns", Unit: "ns", Better: "lower", Moves: "as prob.dist_p4_ns"},

	{Name: "core.slowdown_uncached_p8_ns", Unit: "ns", Better: "lower", Moves: "throughput_ops_s on lib_cold_sweep"},
	{Name: "core.predict_miss_p8_ns", Unit: "ns", Better: "lower", Moves: "throughput_ops_s on lib_cold_sweep"},
	{Name: "core.predict_hit_p8_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op on serve_default_json, fleet_json"},
	{Name: "core.predict_hit_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on serve_default_json, fleet_json"},
	{Name: "core.try_predict_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op on serve_fast_bin"},
	{Name: "core.new_predictor_us", Unit: "us", Better: "lower", Moves: "throughput_ops_s on lib_cold_sweep (one per 100k keys)"},
	{Name: "core.memo_bytes_per_key", Unit: "B", Better: "lower", Moves: "peak_heap_mb on lib_cold_sweep"},
	{Name: "core.memo_hit_share", Unit: "share", Better: "higher", Moves: "windows; cpu_us_per_op on the JSON workloads"},

	{Name: "surface.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve_fast_bin"},
	{Name: "surface.comm_ongrid_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op on serve_fast_bin"},
	{Name: "surface.comm_offgrid_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op on serve_fast_bin"},
	{Name: "surface.hit_share", Unit: "share", Better: "higher", Moves: "windows; throughput_ops_s on serve_fast_bin"},

	{Name: "serve.bin_req_encode_ns", Unit: "ns", Better: "lower", Moves: "client share of cpu_us_per_op on serve_fast_bin"},
	{Name: "serve.bin_req_decode_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op, allocs_per_op on serve_fast_bin"},
	{Name: "serve.bin_resp_decode_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op on serve_fast_bin"},
	{Name: "serve.json_req_decode_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op, allocs_per_op on serve_default_json, fleet_json"},

	{Name: "serve.direct_fast_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on serve_fast_bin"},
	{Name: "serve.direct_dp_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on a cold serve_default_json"},
	{Name: "serve.handler_bin_fast_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on serve_fast_bin"},
	{Name: "serve.handler_bin_fast_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on serve_fast_bin"},
	{Name: "serve.handler_json_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on serve_default_json"},
	{Name: "serve.handler_json_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on serve_default_json"},

	{Name: "serve.fast_share", Unit: "share", Better: "higher", Moves: "windows; latency_p50_ms on serve_fast_bin"},
	{Name: "serve.batched_share", Unit: "share", Better: "higher", Moves: "windows; throughput_ops_s on serve_default_json"},
	{Name: "serve.degraded_share", Unit: "share", Better: "lower", Moves: "windows; none (no faults injected)"},
	{Name: "serve.stage_decode_mean_us", Unit: "us", Better: "lower", Moves: "windows; cpu_us_per_op on the serving workloads"},
	{Name: "serve.stage_admission_mean_us", Unit: "us", Better: "lower", Moves: "windows; cpu_us_per_op on the serving workloads"},
	{Name: "serve.stage_batch_wait_mean_us", Unit: "us", Better: "lower", Moves: "windows; latency_p50_ms, throughput_ops_s on serve_default_json, fleet_json"},
	{Name: "serve.stage_compute_mean_us", Unit: "us", Better: "lower", Moves: "windows; latency_p50_ms on serve_default_json"},
	{Name: "serve.stage_surface_mean_us", Unit: "us", Better: "lower", Moves: "windows; cpu_us_per_op on serve_fast_bin"},
	{Name: "serve.stage_encode_mean_us", Unit: "us", Better: "lower", Moves: "windows; cpu_us_per_op on the serving workloads"},
	{Name: "serve.unattributed_share", Unit: "share", Better: "lower", Moves: "none; warns above 0.10"},

	{Name: "rm.admission_pair_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_op on serve_fast_bin"},

	{Name: "loopback.null_handler_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on serve_fast_bin: the floor no server change can beat"},
	{Name: "loopback.overhead_bin_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on serve_fast_bin"},
	{Name: "loopback.overhead_json_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on serve_default_json"},
	{Name: "loopback.client_allocs_per_op", Unit: "count", Better: "lower", Moves: "allocs_per_op on serve_fast_bin"},

	{Name: "cluster.handler_json_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms on fleet_json only"},
	{Name: "cluster.handler_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on fleet_json only"},
	{Name: "cluster.hop_overhead_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on fleet_json only"},
	{Name: "cluster.retries_per_kop", Unit: "1/kop", Better: "lower", Moves: "windows; none (no faults injected)"},
	{Name: "cluster.spills_per_kop", Unit: "1/kop", Better: "lower", Moves: "windows; none at 2 clients"},
	{Name: "cluster.stage_decode_mean_us", Unit: "us", Better: "lower", Moves: "windows; cpu_us_per_op on fleet_json"},
	{Name: "cluster.stage_route_mean_us", Unit: "us", Better: "lower", Moves: "windows; latency_p50_ms on fleet_json"},
	{Name: "cluster.stage_attempt_mean_us", Unit: "us", Better: "lower", Moves: "windows; latency_p50_ms on fleet_json"},
	{Name: "cluster.stage_encode_mean_us", Unit: "us", Better: "lower", Moves: "windows; cpu_us_per_op on fleet_json"},

	{Name: "scenario.schedule_mixed_ms", Unit: "ms", Better: "lower", Moves: "none today (fixture cost of a future scenario workload)"},
	{Name: "scenario.encode_item_ns", Unit: "ns", Better: "lower", Moves: "none today"},

	{Name: "experiments.table12_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.table3_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.table4_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure1_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure2_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure3_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure4_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure5_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure6_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure7_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "experiments.figure8_ms", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on paper_suite"},
	{Name: "calibrate.paragon_ms", Unit: "ms", Better: "lower", Moves: "setup_s on paper_suite"},
	{Name: "calibrate.cm2_ms", Unit: "ms", Better: "lower", Moves: "setup_s on paper_suite"},
	{Name: "runner.map_item_overhead_ns", Unit: "ns", Better: "lower", Moves: "throughput_ops_s on paper_suite"},

	{Name: "bench.span_client_self_us", Unit: "us", Better: "lower", Moves: "windows; none (the benchmark's own client)"},
	{Name: "bench.span_transport_self_us", Unit: "us", Better: "lower", Moves: "windows; latency_p50_ms on the HTTP workloads"},
	{Name: "bench.span_layer_us", Unit: "us", Better: "lower", Moves: "windows; latency_p50_ms of the workload being run"},
	{Name: "bench.latency_p99_ms", Unit: "ms", Better: "lower", Moves: "windows; reported, not gated: its run-to-run spread on the reference machine exceeds any bound"},
	{Name: "bench.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "windows; reported, not gated, for the same reason"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower", Moves: "none"},
	{Name: "bench.failed_share", Unit: "share", Better: "lower", Moves: "none; must be 0"},
}
