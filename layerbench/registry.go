package main

import (
	"repro/internal/experiments"
	"repro/internal/perf"
)

// metric names one measurement the benchmark reports. Better is "higher"
// or "lower".
type metric struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them, each with the meaning doc.go gives it for that
// workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"sim_ns_per_rec", "ns", "lower"},
	{"latency_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// Design names the per-layer metrics are keyed by.
var (
	// coreDesigns are the two designs every traced run drives through
	// core.Session: the 4K baseline and the paper's headline design.
	coreDesigns = []string{experiments.NameBaseline, experiments.NameMultiEntry}
	// pdedeDesigns are the designs with a delta (single-cycle, same-page)
	// lookup path, whose served share is a PDede layer metric.
	pdedeDesigns = []string{experiments.NamePDede, experiments.NameMultiTarget, experiments.NameMultiEntry}
)

// benchDesigns is every design the BTB layer replays and the suite
// workload runs: the Fig 11a ablation chain plus Shotgun.
func benchDesigns() []experiments.Design { return perf.BenchDesigns() }

// designsByName resolves names against benchDesigns.
func designsByName(names []string) []experiments.Design {
	var out []experiments.Design
	for _, n := range names {
		for _, d := range benchDesigns() {
			if d.Name == n {
				out = append(out, d)
			}
		}
	}
	return out
}

// perLayer lists the traced run's metrics, one group per module. Every
// workload reports all of them: the traced run drives the capture, runner
// and serve paths and replays each layer over that workload's own records.
func perLayer() []metric {
	ms := []metric{
		{"trace.pdtz_decode_ns_per_rec", "ns", "lower"},
		{"trace.pdtz_bytes_per_rec", "B", "lower"},
		{"trace.pdt1_encode_us_per_batch", "us", "lower"},
		{"trace.pdt1_decode_us_per_batch", "us", "lower"},
		{"workload.build_s", "s", "lower"},
		{"workload.pdtz_write_s", "s", "lower"},
	}
	for _, d := range coreDesigns {
		ms = append(ms,
			metric{"core." + d + ".apply_ns_per_rec", "ns", "lower"},
			metric{"core." + d + ".residual_ns_per_rec", "ns", "lower"},
			metric{"core." + d + ".ipc", "instr/cycle", "higher"},
			metric{"core." + d + ".btb_mpki", "miss/kinstr", "lower"},
		)
	}
	ms = append(ms,
		metric{"core.alloc_bytes_per_krec", "B", "lower"},
		metric{"predictor.tage_ns_per_cond", "ns", "lower"},
		metric{"predictor.tage_accuracy", "fraction", "higher"},
		metric{"predictor.ras_ns_per_op", "ns", "lower"},
		metric{"predictor.ras_hit_rate", "fraction", "higher"},
	)
	for _, d := range benchDesigns() {
		ms = append(ms,
			metric{"btb." + d.Name + ".ns_per_op", "ns", "lower"},
			metric{"btb." + d.Name + ".taken_hit_rate", "fraction", "higher"},
		)
	}
	for _, d := range pdedeDesigns {
		ms = append(ms, metric{"pdede." + d + ".delta_served_frac", "fraction", "higher"})
	}
	return append(ms,
		metric{"cache.fetch_ns_per_rec", "ns", "lower"},
		metric{"cache.icache_miss_rate", "fraction", "lower"},
		metric{"cache.l2_miss_rate", "fraction", "lower"},
		metric{"experiments.warm_pass_s", "s", "lower"},
		metric{"experiments.cell_s", "s", "lower"},
		metric{"experiments.pool_busy_frac", "fraction", "higher"},
		metric{"experiments.warm_cells", "count", "higher"},
		metric{"serve.apply_us_per_batch", "us", "lower"},
		metric{"serve.ack_us_p50", "us", "lower"},
		metric{"serve.ack_overhead_us_p50", "us", "lower"},
		metric{"serve.ack_overhead_us_p99", "us", "lower"},
		metric{"serve.gen_lag_ms_p99", "ms", "lower"},
		metric{"serve.backpressure_total", "count", "lower"},
		metric{"serve.duplicate_total", "count", "lower"},
		metric{"serve.deadline_misses_total", "count", "lower"},
		metric{"serve.retries_total", "count", "lower"},
		metric{"host.probe_ms_q1", "ms", "lower"},
		metric{"host.probe_ms_q3", "ms", "lower"},
		metric{"host.trace_overhead_frac", "fraction", "lower"},
	)
}
