// Package rcmp is a reproduction of "RCMP: Enabling Efficient
// Recomputation Based Failure Resilience for Big Data Analytics"
// (Dinu and Ng, IPDPS 2014).
//
// The implementation lives under internal/: a discrete-event cluster
// simulator (des, flow, cluster), an HDFS-like metadata file system (dfs),
// a MapReduce execution engine with Hadoop-replication and RCMP strategies
// (mapreduce), the recomputation planner that is the paper's core
// contribution (core, lineage), a functional data-plane engine used to
// verify recovery correctness record by record (engine, workload), a
// distributed master/worker runtime that runs the whole system over real
// TCP sockets with heartbeat failure detection (wire, dmr), the per-figure
// experiment harnesses (experiments, analysis, failure, metrics, textplot),
// and a parallel deterministic experiment runner (runner).
//
// Every experiment is registered in experiments.Registry() and is a pure
// function of its experiments.Config (scale, seed, failure scenario): all
// randomness flows from per-run seeded RNGs and each simulation owns its
// state, so the runner can execute figures across GOMAXPROCS workers while
// producing output byte-identical to a serial run. Failure scenarios range
// from the paper's single injection (-failure-at) to multi-failure
// schedules (failure.Schedule): ordered pulses of simultaneous node
// losses, written explicitly (-schedule '2@15,4@5x2') or sampled from the
// Figure-2 STIC/SUG@R traces (-schedule stic), which can land mid-recovery
// and drive the double-failure and trace-replay experiments. Invalid
// scenario overrides surface as per-job errors, never panics, so sweep
// grids always complete. `go run ./cmd/rcmpsim -fig all -parallel 8 -json`
// regenerates the whole evaluation that way; docs/experiments.md describes
// the registry, seeds, schedules and the determinism guarantee, and
// experiments/golden_digest_test.go pins a SHA-256 digest of every
// figure's output so behaviour changes cannot land unnoticed.
//
// The simulation core is built for scale: the flow network rebalances
// max-min fair rates incrementally per connected component, coalesces
// same-path transfers onto trunks (shuffle traffic is arbitrated per node
// pair, not per reducer), and reschedules its completion event in place;
// docs/flow.md describes the algorithm, its invariants and how the default
// strict mode preserves the historical global rebalance's rounding
// behaviour (the golden-digest suite pins the resulting outputs) while
// lazy mode trades that for per-component banking. The mapreduce layer is
// decomposed into phase modules (map_phase, shuffle_phase, output_phase,
// recovery) around the explicit task-lifecycle state machine in
// lifecycle.go.
//
// The design documents live in docs/: experiments.md (the registry and
// the parallel runner), flow.md (the flow network), perf.md (simulator
// performance, fast-forward and the analytic twin), dag.md (job graphs
// and multi-tenant sessions), serving.md (the rcmpserve sweep server and
// /v1/plan) and crossval.md (sim-versus-real cross-validation). The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation (BenchmarkAllParallel measures the runner's
// wall-clock win over serial execution); `go run ./cmd/rcmpd demo`
// exercises failure recovery on the distributed runtime, and `make
// verify` runs the build, test, race and benchmark-smoke gates in one
// command.
package rcmp
