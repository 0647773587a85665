// Command layerbench is the repository's benchmark. It measures the three
// paths users run end to end, and, in a separate traced run, each layer of
// the simulator on the same inputs.
//
// Run it from the repository root; run.sh builds it from source and keeps
// everything it writes under .bench_build/:
//
//	bash layerbench/run.sh -workload capture-oltp -seed 1 -seconds 25 -trace 0
//	bash layerbench/run.sh -workload all -seed 2 -trace 1 -spans spans.json
//	bash layerbench/run.sh -workload suite-ablation -o a.jsonl   # repeat for a set
//	bash layerbench/run.sh -agree a.jsonl b.jsonl
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name → value and unit). Lines before it are the
// human-readable report. -o appends each result, tagged with its workload
// and seed, to a JSON-lines file; -agree prints each such set's median,
// quartiles and spread per workload and end-to-end metric and exits 1 when
// the two sets' medians differ by more than the metric's bound in
// BENCHMARK.json. -cpuprofile and -memprofile write runtime/pprof profiles.
//
// # Workloads
//
// The seed is mixed into every app's or tenant's workload.Config.Seed; the
// simulator sees only the generated records. Seed 1 is the default; seed 2
// is held out for checking a claimed gain. Every trace is cut to a fixed
// number of records, so a seed changes the programs but not the amount of
// work.
//
//   - capture-oltp: Server-oltp-primary, 1.75M records (about 8M
//     instructions) written to a .pdtz file at set-up. Each pass maps the
//     file (trace.OpenPdtz) and replays it through core.RunContext
//     (analytic model, 2M warmup), under baseline-4K and
//     pdede-multi-entry in turn. The BTB working set far
//     exceeds both designs (BTB MPKI about 29 and 15), so Update,
//     allocation, eviction and PDede's Page/Region-BTB and dedup traffic
//     dominate the BTB layer.
//   - capture-jsa: Browser-js-static-analyzer on the same path. Its hot set
//     fits in PDede (MPKI about 1.4 against 6.6), so the BTB layer is
//     almost all Lookup hits. A change to the allocation path should show
//     on capture-oltp and not here.
//   - suite-ablation: experiments.Runner over 4 evenly sampled catalog apps
//     × 7 designs (the Fig 11a ablation chain plus Shotgun), 800K records
//     (about 4M instructions) per app with 1.5M warmup, 2 workers. Set-up
//     builds the traces; the runner gets them through Options.BuildTrace.
//     This is the
//     researcher's path: the worker pool, the shared warm pass, per-design
//     clones and the five designs the captures skip. It decodes no trace
//     file, so a decode change must not move it.
//   - serve-stream: pdede-serve (serve.New, 2 workers, pdede-multi-entry)
//     on a loopback listener. 64 tenants send 256-record PDT1 batches from
//     one client process over at most 2 connections, in four rounds. Each
//     round runs an open loop at 500 and then at 1000 batches/s, each for
//     7.5% of the run, then closed-loop bursts of 2500 batches until its
//     quarter of the run is over; every phase and burst gets a fresh
//     server. A batch costs the simulator about 50 µs, so HTTP, the PDT1
//     codec and queueing dominate an ack: serve changes show here and
//     nowhere else, and simulator changes should barely move it.
//
// The pipeline core model and ITTAGE are in no workload.
//
// # End-to-end metrics
//
// Every workload reports the same four, with bounds in BENCHMARK.json:
//
//   - setup_s: the median of several set-ups in the run. Capture: trace
//     synthesis, .pdtz write and open. Suite: the four traces. Serve: the
//     tenant traces and one server start.
//   - sim_ns_per_rec: host time per simulated record (one dynamic branch
//     and its basic block), at the fastest tenth of operation times.
//     Capture: both designs' passes over the file. Suite: one whole runner
//     run. Serve: a closed-loop burst, the service's capacity. Per record
//     rather than per instruction, because a seed moves instructions per
//     record by several percent and host time per record by about two.
//   - latency_ms: the median time a user waits. Capture: replaying the
//     capture under both designs. Suite: one runner run. Serve: from a
//     batch's due time to its ack at 1000 batches/s, so a stall counts
//     against every batch it delays.
//   - heap_mb: the largest live heap after runtime.GC at the end of a pass,
//     a runner run or an open-loop phase, with its state still reachable.
//
// Every run also checks its outputs; a mismatch counts as failed. Capture:
// every pass's core.Result digest equals an untimed in-memory
// core.RunContext over the same records. Suite: every cell completes, the
// export digest is the same in every run, and one cell, picked by the
// seed, matches a ColdStart run. Serve: every batch is acknowledged exactly
// once, and every tenant's /stats digest equals an offline
// serve.Config.NewSession replay of the batches it sent. The report also
// prints each open-loop phase's p99 against the 5 ms limit and the
// generator's lag.
//
// # Traced run
//
// -trace 1 replaces the end-to-end measurement with a per-layer one, on
// the same set-up, for every workload. It drives three paths from outside,
// recording spans (name, start, end, parent, request id) around the calls
// into each layer, kept in memory and written by -spans as Chrome
// trace-event JSON:
//
//   - capture: the loop core.RunContext runs, by hand, with a decode span
//     per BlockReader.NextBatch and an apply span per Session.Apply, under
//     both core designs, over up to 4 of the workload's streams (written to
//     .pdtz first when set-up did not). Untraced passes interleaved with
//     traced ones give the tracing overhead. Every result must equal the
//     untraced one.
//   - runner: the suite runner over the same streams, each trace.Source
//     wrapped so that each Open becomes a warm-pass or cell span ending at
//     the runner's last read; its export must equal an untraced run's.
//   - serve: one open-loop phase of the workload's records at 1000
//     batches/s, split among the tenants, with due-to-ack, generator-lag
//     and ack spans per batch, and PDT1 encode, decode and offline apply
//     spans for the same batch.
//
// It then replays the same records through each layer alone: the direction
// predictor (TAGE Predict/Update), the RAS (Push/Pop), each design's BTB
// (Lookup/Update, returns skipped as the core skips them) and the ICache
// and L2 (AccessRange). The attribution table sets the sum of these layers
// against decode plus apply per record; the residual is cycle accounting,
// wrong-path pollution and what isolation hides (caches shared between
// layers in the real loop).
//
// Each per-layer metric, and the end-to-end metric it should move:
//
//	trace.pdtz_*             sim_ns_per_rec, latency_ms on capture-*; nothing on suite-ablation
//	trace.pdt1_*             latency_ms, sim_ns_per_rec on serve-stream only
//	workload.*               setup_s everywhere
//	core.<d>.*               sim_ns_per_rec, latency_ms on capture-* and suite-ablation;
//	                         ipc and btb_mpki are exact and must not move in a speed change
//	predictor.*              every simulation workload alike
//	btb.<d>.*, pdede.<d>.*   the workloads that run design d: Update/allocation on
//	                         capture-oltp, Lookup hits on capture-jsa, every other
//	                         design on suite-ablation
//	cache.*                  capture-oltp (larger footprint) more than capture-jsa
//	experiments.*            suite-ablation only
//	serve.*                  serve-stream only; apply is a small share of an ack
//	host.*                   diagnostics: probe_ms is a memory-bound kernel's time,
//	                         trace_overhead_frac what the capture spans cost
//
// # Noise and run design
//
// The benchmark was built on a 2-vCPU Xeon virtual machine shared with
// other tenants. There, the simulator's speed moves in phases of one to ten
// seconds, with slow phases up to 60% slower, and drifts by 10-25% over
// minutes. Thread CPU time tracks wall time (98%) and steal time is about
// 1%, so the slow phases are contention for the shared memory system, not
// descheduling: a pointer-chasing kernel slows with them and an arithmetic
// kernel does not. No kernel slows by the same factor as the simulator, so
// no metric is divided by one; host.probe_ms only helps a reader tell a
// slow session from a slow commit. Hence:
//
//   - timed operations are short (half a second for a capture's two
//     passes, a few hundred milliseconds for a serve phase or burst) and
//     interleaved across designs and phases over the whole run, so slow
//     phases fall on all of them alike;
//   - sim_ns_per_rec uses the fastest tenth of operation times. Neighbours
//     only ever add time, and a slow phase can cover most of a run, so the
//     fast tail repeats best; the median and the mean also carry the
//     neighbours' load. The report prints the first quartile, the median
//     and the aggregate MIPS too;
//   - traces hold a fixed number of records, so seeds change the programs
//     and not the amount of work;
//   - the spread across a set of runs comes from the host's drift, which a
//     longer run does not average away, so the timing bounds in
//     BENCHMARK.json are 25%. RESULTS.md in this directory records the
//     spreads two sets of ten runs showed.
package main
