package main

import (
	"encoding/json"
)

// decl declares one metric. BENCHMARK.json is generated from these
// tables (bench -manifest) and bench_test.go holds the two together.
type decl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end to end only: share of the parent's median the metric may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; what an "op" is on each workload is in README.md.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.20},
	{"heap_live_mb", "MB", "lower", 0.15},
}

// perLayer is measured by the traced run, from outside each layer's
// public functions. A layer off a workload's path reports 0 there.
var perLayer = []decl{
	// Workload-specific end-to-end numbers. The benchmark contract wants
	// every end-to-end metric from every workload, and these exist on one
	// or two, so they are reported here and guarded by output checks.
	{name: "ingest_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "ingest_ack_p99_ms", unit: "ms", better: "lower"},
	{name: "ann_recall_at_10", unit: "ratio", better: "higher"},
	{name: "train_samples_per_s", unit: "1/s", better: "higher"},
	{name: "train_w1_samples_per_s", unit: "1/s", better: "higher"},
	{name: "eval_users_per_s", unit: "1/s", better: "higher"},
	{name: "recall_at_20", unit: "ratio", better: "higher"},
	{name: "recall_at_20_w2", unit: "ratio", better: "higher"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "p95_ms", unit: "ms", better: "lower"},
	{name: "p99_ms", unit: "ms", better: "lower"},

	{name: "harness.null_goodput_qps", unit: "1/s", better: "higher"},
	{name: "harness.null_p50_ms", unit: "ms", better: "lower"},
	{name: "harness.ceiling_ratio", unit: "ratio", better: "lower"},
	{name: "harness.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "harness.conns_opened", unit: "count", better: "lower"},
	{name: "harness.goodput_window_iqr_frac", unit: "ratio", better: "lower"},
	{name: "harness.trace_overhead_frac", unit: "ratio", better: "lower"},

	{name: "client.self_us", unit: "us", better: "lower"},
	{name: "client.slo_miss_frac", unit: "ratio", better: "lower"},

	{name: "router.http_us", unit: "us", better: "lower"},
	{name: "router.self_us", unit: "us", better: "lower"},
	{name: "router.batch_self_us", unit: "us", better: "lower"},
	{name: "router.requests", unit: "count", better: "higher"},
	{name: "router.retries", unit: "count", better: "lower"},
	{name: "router.alloc_kb_per_op", unit: "KB", better: "lower"},

	{name: "serve.recommend_us", unit: "us", better: "lower"},
	{name: "serve.batch_us", unit: "us", better: "lower"},
	{name: "serve.similar_us", unit: "us", better: "lower"},
	{name: "serve.nearest_us", unit: "us", better: "lower"},
	{name: "serve.analogy_us", unit: "us", better: "lower"},
	{name: "serve.ingest_us", unit: "us", better: "lower"},
	{name: "serve.self_us", unit: "us", better: "lower"},
	{name: "serve.resp_bytes", unit: "B", better: "lower"},
	{name: "serve.allocs_per_op", unit: "count", better: "lower"},
	{name: "serve.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "serve.server_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.server_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.degraded", unit: "count", better: "lower"},
	{name: "serve.http_5xx", unit: "count", better: "lower"},

	{name: "shard.recommend_hit_us", unit: "us", better: "lower"},
	{name: "shard.recommend_miss_us", unit: "us", better: "lower"},
	{name: "shard.recommend_ann_us", unit: "us", better: "lower"},
	{name: "shard.batch_us", unit: "us", better: "lower"},
	{name: "shard.similar_us", unit: "us", better: "lower"},
	{name: "shard.nearest_us", unit: "us", better: "lower"},
	{name: "shard.analogy_us", unit: "us", better: "lower"},
	{name: "shard.self_us", unit: "us", better: "lower"},
	{name: "shard.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "shard.cache_fills", unit: "count", better: "lower"},
	{name: "shard.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "shard.ann_fallbacks", unit: "count", better: "lower"},

	{name: "eval.topk_us", unit: "us", better: "lower"},
	{name: "eval.mask_train_us", unit: "us", better: "lower"},
	{name: "eval.evaluate_s", unit: "s", better: "lower"},

	{name: "core.score_items_us", unit: "us", better: "lower"},
	{name: "core.epoch1_s", unit: "s", better: "lower"},
	{name: "core.epoch_p50_s", unit: "s", better: "lower"},
	{name: "core.loss_final", unit: "loss", better: "lower"},
	{name: "core.snapshot_save_ms", unit: "ms", better: "lower"},
	{name: "core.snapshot_load_ms", unit: "ms", better: "lower"},

	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "optim.adam_step_us", unit: "us", better: "lower"},
	{name: "parallel.dispatch_us", unit: "us", better: "lower"},
	{name: "graph.sample_neighbors_ns", unit: "ns", better: "lower"},
	{name: "graph.neighbors_ns", unit: "ns", better: "lower"},
	{name: "graph.freeze_ms", unit: "ms", better: "lower"},

	{name: "ann.build_s", unit: "s", better: "lower"},
	{name: "ann.search_us", unit: "us", better: "lower"},
	{name: "ann.search_filtered_us", unit: "us", better: "lower"},
	{name: "ann.levels", unit: "count", better: "lower"},

	{name: "ledger.append_us", unit: "us", better: "lower"},
	{name: "ledger.append_batch64_us", unit: "us", better: "lower"},
	{name: "ledger.replay_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ingest.prepare_us", unit: "us", better: "lower"},
	{name: "ingest.apply_us", unit: "us", better: "lower"},
	{name: "ingest.events_acked", unit: "count", better: "higher"},
	{name: "ingest.events_replayed", unit: "count", better: "higher"},
	{name: "graph.overlay_add_edge_ns", unit: "ns", better: "lower"},
	{name: "graph.overlay_neighbors_ns", unit: "ns", better: "lower"},
	{name: "graph.compact_ms", unit: "ms", better: "lower"},

	{name: "facility.instantiate_ms", unit: "ms", better: "lower"},
	{name: "trace.generate_ms", unit: "ms", better: "lower"},
	{name: "dataset.build_ms", unit: "ms", better: "lower"},
	{name: "obs.scrape_ms", unit: "ms", better: "lower"},
	{name: "obs.scrape_bytes", unit: "B", better: "lower"},
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// unitOf panics on an undeclared metric: reporting one is a bug in the
// benchmark, and the self-test exercises every reporting path.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	return u
}

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the tables above.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, wl{s.name, s.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
