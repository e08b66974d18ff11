// Command scm-bench is the repository's benchmark. One invocation runs
// one trial of one named workload, checks every output, prints each
// metric by name with its unit, and ends with a one-line JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": …, "unit": "op/s"}, …}}
//
// It exits 1 when an output check fails. BENCHMARK.json at the
// repository root names the workloads and metrics, and bounds how far
// each end-to-end metric may worsen before a change is a regression.
//
// # Running it
//
// From the repository root, benchmark/run.sh builds the command into
// .bench_build/ and runs it:
//
//	bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0 -o cold-1.json
//	bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 1 --spans cold.json
//	bash benchmark/run.sh -compare base-1.json,base-2.json,base-3.json new-1.json,new-2.json,new-3.json
//
// The benchmark directory is a Go module of its own; go test in it runs
// the benchmark's tests, among them a 200 ms run of every workload.
//
// # Load model
//
// One process generates all load. The serve workloads run an in-process
// serve.Engine with 2 workers behind its HTTP handler on a loopback
// port, and 2 closed-loop clients, each sending its next request only
// when the previous one has returned: scm-serve's callers are CLIs and
// design-space scripts that wait for their reply. sim-sweep calls the
// simulator from one goroutine. A trial times -seconds of work after
// set-up and a warm-up, and runs past that until it has timed at least
// 1,000 ops, so that p99 has at least 10 samples beyond it. The seed
// generates every input; the program under test sees only those inputs.
// Inputs that must not repeat draw their platform from a seeded
// permutation of a 12,286,976-point grid (pool banks, bank KiB, PE array,
// feature-map GB/s), so no configuration repeats within a run.
//
// # Workloads
//
// sim-sweep: one op is one core.Simulate call. Calls cycle through
// densechain, squeezenet, squeezenet-bypass, resnet18, resnet34 under
// baseline, fm-reuse and scm, resnet152, mobilenetv2, googlenet and
// shufflenetv1, which between them have every layer kind, each call on
// a fresh platform point. This is the design-space explorer's path: the
// core layer loop does nearly all the work, and one *nn.Network per
// model is shared across calls, as dse.Explore shares it. Every op is
// checked: its layer cycles must sum to TotalCycles.
//
// serve-hot: one op is one POST /v1/simulate naming a zoo network, over
// 6 networks × 3 strategies. Set-up warms the cache with all 18 keys, and
// the trial requires a cache hit ratio of exactly 1. The simulator does
// no work here: an op is nn.Build, serve.RequestKey, the cache lookup,
// reply encoding and HTTP.
//
// serve-cold: one op is one POST /v1/simulate carrying an inline JSON
// graph and its own platform point; one request in 8 sets observe, which
// runs core with its metrics registry. The cache never hits (required),
// and fills to its 64 MiB budget during the trial. This is the full
// stack with the simulator working, and a network decoded per request:
// the opposite of sim-sweep on network sharing.
//
// serve-durable: one op is one async job, timed from its POST until a
// GET /v1/jobs/{id}, polled every millisecond, finds it finished. The
// engine journals every job through an fsync'd journal and checkpoints
// simulations every 8 layers. In every 10 jobs, 6 are simulations, 2 are
// 4-point resnet18 sweeps, 1 is a schedule and 1 a two-chip cluster run,
// each with its own platform or seed. Before set-up, an untimed pre-run
// of 500 jobs fills a journal; set-up is journal.Open plus
// Engine.Recover of that journal. This workload writes, where the
// others only read the cache, and covers all four job kinds.
//
// serve-hot and serve-cold re-run every 64th request in process after
// timing and compare TotalCycles and per-class traffic; serve-durable
// re-runs every 16th job and compares its whole result document. Every
// run first recomputes the paper anchors at core.Default(): the
// baseline-to-scm feature-map traffic reductions of squeezenet-bypass,
// resnet34 and resnet152 must read 53.5, 68.8 and 43.0 %. Any mismatch
// or failed op counts in the result's failed count and exits 1.
//
// # End-to-end metrics (--trace 0)
//
//	ops_per_s        op/s   ops whose output checked out, per timed second
//	op_ms_p50        ms     median op latency
//	op_ms_p99        ms     99th-percentile op latency
//	setup_s          s      set-up time, median of 9 set-ups per run
//	alloc_kb_per_op  KiB    heap allocated per op
//	heap_live_mb     MiB    heap live after runtime.GC() at the end of timing,
//	                        less the benchmark's own per-op records
//
// The four timings are scaled to a reference host speed: the run times
// a fixed standard-library kernel for 100 ms before each set-up and
// after every 2 s of the trial's window, and multiplies rates (divides
// times) by how much slower than nominal that kernel ran. The kernel
// runs only while the system is stopped: the clients finish their ops,
// the engine finishes its journal appends and compactions and the Go
// collector its cycle, all inside the timed window, and only then is
// the window's clock stopped for the kernel. On a shared host whose
// speed drifts by a quarter over minutes, this cut the spread of ten
// trials of one commit (interquartile range over median) from 5–30% to
// 2–12%; the -o report keeps the kernel's rates, from which the raw
// timings follow. See reference.go.
//
// The bounds in BENCHMARK.json come from sets of ten trials on a
// 2-vCPU VM. ops_per_s (15%) and op_ms_p50 (20%) are about 1.5 times
// the widest spread seen; serve-durable's median falls between its fast
// simulate jobs and its slower sweeps, so it moves most. op_ms_p99 and
// setup_s take 25%, the most BENCHMARK.json allows: serve-hot's p99
// moved 21% between two sets of one commit, and set-up is timed in
// milliseconds. alloc_kb_per_op (5%) and heap_live_mb (10%) repeat to
// within 2%.
//
// # Per-layer metrics (--trace 1)
//
// A traced run spends half of -seconds on an untraced window and half
// on a traced one, then probes core alone; its timings are not scaled.
// In the traced window every op is timed in spans kept in memory, then
// its document is replayed through each layer's public entry point
// under a replay span: nn.Build, nn.DecodeJSON, core.DecodeConfigJSON,
// serve.RequestKey, core.NewRun and Run.Step (inline in sim-sweep's op,
// which is that loop), the indented reply encode, and on the op's own
// job kind or every 16th op a journal Append into a scratch journal and
// dse.ExploreContext, sched.RunContext and cluster.RunContext. All spans
// of an op share its op id; they are written at the end as Chrome
// trace-event JSON, which Perfetto opens, and the report (-o) lists each
// span name's median, p99 and self time (duration less what its
// children cover). Every workload reports every per-layer metric,
// measured on its own inputs:
//
//	core.validate_us, core.new_run_us, core.finish_us    median call time
//	core.step_ns.<kind>         mean Step time per layer kind, last Step excluded
//	core.layers_per_s           layers stepped per second of Step time
//	core.allocs_per_layer       heap allocations per simulated layer (probe)
//	core.observed_overhead_ratio, core.traced_overhead_ratio
//	                            Simulate time with a metrics registry or a
//	                            trace recorder attached, over neither (probe)
//	nn.build_us, nn.decode_us, serve.key_us, serve.config_decode_us,
//	serve.encode_us             median call time
//	serve.cache_hit_ratio, serve.rejected_ratio, serve.polls_per_job
//	journal.append_us_p50, journal.append_us_p99
//	journal.recover_ms          journal.Open of the scratch journal
//	dse.sweep_ms, sched.run_ms, cluster.run_ms          median call time
//	runtime.gc_cpu_fraction, runtime.gc_pause_ms_p99    untraced window
//	bench.residual_us           median op time less the replayed time of the
//	                            layers the op itself ran: transport, mux,
//	                            cache, queueing and single-flight on the serve
//	                            workloads, the loop between calls on sim-sweep
//	bench.trace_overhead_ratio  untraced over traced ops_per_s
//
// Which end-to-end metric a layer should move, and where:
//
//	layer             should move                           on                      flat on
//	core              ops_per_s, op_ms_p50, alloc_kb_per_op sim-sweep, serve-cold   serve-hot
//	core instruments  op_ms_p50                             serve-cold              sim-sweep
//	nn                op_ms_p50                             serve-hot (build),      sim-sweep
//	                                                        serve-cold (decode)
//	serve             ops_per_s, op_ms_p50, op_ms_p99       serve-hot, serve-cold   sim-sweep
//	journal           op_ms_p50, setup_s                    serve-durable           the others
//	dse, sched,       ops_per_s, op_ms_p99                  serve-durable           the others
//	cluster
//	Go runtime        op_ms_p99, heap_live_mb               serve-cold, serve-hot
//	bench             guards the traced run                 all
//
// Step time inside Run.Step (tiling, sram, dram, pe, compress) cannot be
// split from outside; that needs tracing inside the program.
//
// # Comparing
//
// -compare takes two comma-separated sets of -o reports, such as
// trials of a parent commit and of a change, and prints for every
// (workload, metric) pair each side's median and quartiles. For each
// end-to-end metric it gives a verdict against the BENCHMARK.json bound:
// better or worse when the medians differ by more than the bound, same
// within it, and unresolved when either side's interquartile range
// exceeds the bound, unless every new run beats every base run. It
// exits 1 on any worse verdict and warns when the reports come from
// different hosts.
package main
