// Package analytic is the closed-form performance twin of the discrete-event
// simulator: it computes chain/graph makespan, per-phase timings, and
// recovery cost (cascade depth, regenerated partitions, SPLIT vs NO-SPLIT
// recovery seconds) directly from cluster.Config + ChainConfig/GraphConfig
// and a failure schedule, with no event loop.
//
// The model has two parts. The failure-free schedule derives from the same
// closed-form facts the fast-forward engine exploits: map waves gated by the
// slot table, water-filled aggregate shuffle rates per rate class (source
// NICs, destination NICs, the oversubscribed core, and seek-capped disks at
// the shuffle weight f), merge at ReduceCPU, and replication-pipelined
// output writes. The recovery part replays the planner's need-propagation
// analytically: a failure kills the running job at detection, the victim
// count fixes how many persisted partitions of every ancestor are lost
// (round-robin reducer placement puts ~R·v/N partitions of each job on v
// victims), and the cascade regenerates those partitions ancestor by
// ancestor — optionally split s ways — before the frontier job restarts and
// the remainder of the chain runs on the degraded cluster.
//
// A Model carries the handful of constants the closed form cannot derive
// (a global stretch for queueing effects the water-filling averages out,
// and a per-run overhead for startup/teardown event trains). DefaultModel
// holds frozen constants fitted against quick-scale DES runs; Calibrate
// refits them for a new cluster shape from two short DES measurements.
//
// Every entry point returns the same result types the simulator produces
// (*mapreduce.Result, *mapreduce.MultiResult) with synthetic run stats and
// task samples, so every experiment in the registry can run unchanged on
// either engine. Events and Flows are zero: there is no event loop.
package analytic

import (
	"fmt"
	"math"
	"sort"

	"rcmp/internal/cluster"
	"rcmp/internal/des"
	"rcmp/internal/mapreduce"
)

// Model holds the calibrated constants of the analytic twin.
type Model struct {
	// TimeStretch multiplies every modeled phase duration. It absorbs the
	// queueing and discretization effects the water-filled closed form
	// averages out (wave-boundary stalls, fetch-parallelism serialization).
	TimeStretch float64
	// RunOverhead is added once per started run: the setup/teardown event
	// trains (slot table churn, commit barriers) that are latency, not
	// bandwidth.
	RunOverhead float64
	// RecoveryStretch multiplies recomputation-step durations on top of
	// TimeStretch: recovery runs on a degraded cluster with cold caches
	// and partial waves, which the DES resolves event by event.
	RecoveryStretch float64
}

// DefaultModel returns the frozen constants baked in for digest purity:
// they were fitted once (see Calibrate and docs/perf.md) against quick-scale
// DES runs on the STIC and DCO shapes and are committed, so an analytic
// answer never depends on ambient DES runs.
func DefaultModel() Model {
	return Model{TimeStretch: 1.0, RunOverhead: 0.0, RecoveryStretch: 1.0}
}

// Default is the model used by the experiment registry's analytic engine.
var Default = DefaultModel()

// sampleCap bounds the synthetic per-task samples a run emits. Beyond it
// (and whenever NoTaskSamples is set) the evaluator records run stats only,
// keeping 10⁵–10⁶-node what-ifs allocation-light.
const sampleCap = 1 << 17

// RunChain evaluates a linear chain analytically. It mirrors
// mapreduce.RunChain: same validation, same result contract.
func (m Model) RunChain(ccfg cluster.Config, cfg mapreduce.ChainConfig) (*mapreduce.Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	return m.run(ccfg, cfg, linearGraph(cfg.NumJobs))
}

// RunGraph evaluates a DAG of jobs analytically, mirroring
// mapreduce.RunGraph.
func (m Model) RunGraph(ccfg cluster.Config, cfg mapreduce.GraphConfig) (*mapreduce.Result, error) {
	cfg.ChainConfig = cfg.ChainConfig.WithDefaults()
	cfg.NumJobs = len(cfg.Jobs)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	return m.run(ccfg, cfg.ChainConfig, cfg.Jobs)
}

// run is the shared chain/graph entry: build job shapes, replay the failure
// schedule over the closed-form schedule, and package a Result.
func (m Model) run(ccfg cluster.Config, cfg mapreduce.ChainConfig, jobs []mapreduce.GraphJob) (*mapreduce.Result, error) {
	ev, err := newEval(m, ccfg, cfg, jobs)
	if err != nil {
		return nil, err
	}
	ev.replay()
	return ev.result(), nil
}

// linearGraph lowers an n-job chain onto the graph representation: job j
// reads job j-1's output (job 1 reads the external input).
func linearGraph(n int) []mapreduce.GraphJob {
	jobs := make([]mapreduce.GraphJob, n)
	for i := range jobs {
		in := "input"
		if i > 0 {
			in = fmt.Sprintf("out%d", i)
		}
		jobs[i] = mapreduce.GraphJob{
			Name:   fmt.Sprintf("job%d", i+1),
			Inputs: []string{in},
			Output: fmt.Sprintf("out%d", i+1),
		}
	}
	return jobs
}

// RunMultiTenant evaluates `tenants` copies of the graph sharing one
// cluster, mirroring mapreduce.RunMultiTenant. The single-tenant schedule is
// evaluated once; contention scales it by the session's resource-bound lower
// envelope, so makespan and recovery cost are non-decreasing in the tenant
// count by construction.
func (m Model) RunMultiTenant(ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (*mapreduce.MultiResult, error) {
	se, err := m.evalSession(ccfg, cfg, tenants)
	if err != nil {
		return nil, err
	}
	makespan := se.freeSpan + se.recSpan
	res := se.ev.result()
	scale := 1.0
	if se.ev.now > 0 {
		scale = makespan / se.ev.now
	}
	out := &mapreduce.MultiResult{Makespan: des.Time(makespan)}
	for i := 0; i < tenants; i++ {
		// Tenants share the run/task slices — session metrics only read
		// them — but each carries its own completion time.
		tr := *res
		tr.Total = des.Time(float64(res.Total) * scale)
		out.Tenants = append(out.Tenants, &tr)
	}
	return out, nil
}

// sessionEval is the evaluated shared-cluster session RunMultiTenant and
// PlanSession both read: the failure-free span, the recovery span stacked
// on top of it, and the two single-tenant evaluations behind them.
type sessionEval struct {
	freeSpan float64 // failure-free session makespan
	recSpan  float64 // recovery extension under the failure schedule
	ev       *eval   // single tenant, failures applied
	evFree   *eval   // single tenant, failure-free
	tenants  int
}

// evalSession evaluates `tenants` copies of the graph sharing one cluster.
func (m Model) evalSession(ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (sessionEval, error) {
	var se sessionEval
	cfg.ChainConfig = cfg.ChainConfig.WithDefaults()
	cfg.NumJobs = len(cfg.Jobs)
	if err := cfg.Validate(); err != nil {
		return se, err
	}
	if err := ccfg.Validate(); err != nil {
		return se, err
	}
	if tenants < 1 {
		return se, fmt.Errorf("analytic: tenants=%d", tenants)
	}

	// One tenant, with the schedule's failures: the per-tenant critical
	// path, including reaction + cascade + restart.
	ev, err := newEval(m, ccfg, cfg.ChainConfig, cfg.Jobs)
	if err != nil {
		return se, err
	}
	ev.replay()

	// The same tenant failure-free: isolates the recovery delta. Only its
	// timings are read, never its task samples, so it records none.
	freeCfg := cfg.ChainConfig
	freeCfg.Failures = nil
	freeCfg.NoTaskSamples = true
	evFree, err := newEval(m, ccfg, freeCfg, cfg.Jobs)
	if err != nil {
		return se, err
	}
	evFree.replay()
	return newSessionEval(ev, evFree, tenants), nil
}

// newSessionEval stacks two replayed single-tenant evaluations (with and
// without the failure schedule) into a `tenants`-way shared session.
func newSessionEval(ev, evFree *eval, tenants int) sessionEval {
	// Resource-bound session floor: T tenants push T× the disk bytes and
	// T× the slot-seconds through one cluster. The makespan is the larger
	// of the single-tenant critical path and that floor; the recovery
	// delta gets the same treatment over the cascade's own resource
	// demand, so SPLIT's shorter critical path converges to NO-SPLIT's as
	// utilization grows — the paper's Section V-E effect.
	// The per-tenant resource demand is clamped to the critical path so one
	// tenant reproduces the single-tenant schedule exactly; the closed form
	// can overestimate aggregate demand (its resource bound assumes perfect
	// overlap the schedule doesn't always achieve), and the clamp keeps that
	// error out of the t=1 anchor while preserving monotonicity in t.
	t := float64(tenants)
	freeRes := math.Min(evFree.resourceSeconds, evFree.now)
	freeSpan := math.Max(evFree.now, t*freeRes)
	extra := ev.now - evFree.now // reaction + cascade + restart delta
	if extra < 0 {
		extra = 0
	}
	recRes := math.Min(ev.recoveryResourceSeconds, extra)
	recSpan := math.Max(extra, t*recRes)
	return sessionEval{freeSpan: freeSpan, recSpan: recSpan, ev: ev, evFree: evFree, tenants: tenants}
}

// SessionPlan is one capacity-planning answer: the shared-cluster session
// evaluated at a (nodes, tenants) point, with the utilization the tenant
// count actually dials. All times are simulated seconds.
type SessionPlan struct {
	// FreeMakespan is the failure-free session makespan.
	FreeMakespan float64
	// Makespan is the session makespan under the failure schedule.
	Makespan float64
	// Recovery is Makespan − FreeMakespan: what the failure costs.
	Recovery float64
	// Utilization is the failure-free session's busy slot-seconds over its
	// slot capacity (tenants·perTenantBusy / (FreeMakespan·nodes·slots)) —
	// computed from the model's own busy accounting, so it stays available
	// at cluster sizes where per-task samples are capped away.
	Utilization float64
}

// PlanSession answers the capacity-planning question behind the sweep
// server's /v1/plan endpoint without materializing per-tenant results:
// it evaluates the session once and reports makespan, recovery cost and
// utilization. It reads only the evaluations' timing accumulators, so
// neither evaluation records per-task samples and the cost stays flat in
// the node count (tens of microseconds per point, 64 to 10⁶ nodes).
func (m Model) PlanSession(ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (SessionPlan, error) {
	cfg.NoTaskSamples = true
	se, err := m.evalSession(ccfg, cfg, tenants)
	if err != nil {
		return SessionPlan{}, err
	}
	return se.plan(ccfg), nil
}

// plan reads a SessionPlan off an evaluated session.
func (se sessionEval) plan(ccfg cluster.Config) SessionPlan {
	p := SessionPlan{
		FreeMakespan: se.freeSpan,
		Makespan:     se.freeSpan + se.recSpan,
		Recovery:     se.recSpan,
	}
	capacity := p.FreeMakespan * float64(ccfg.Nodes) * float64(ccfg.MapSlots+ccfg.ReduceSlots)
	if capacity > 0 {
		p.Utilization = math.Min(1, float64(se.tenants)*se.evFree.busySeconds/capacity)
	}
	return p
}

// minf returns the smallest of its arguments.
func minf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// sortedNodeScales returns NodeDiskScale values sorted ascending (the
// slowest straggler first); empty when no per-node scaling is configured.
func sortedNodeScales(cc *cluster.Config) []float64 {
	if len(cc.NodeDiskScale) == 0 {
		return nil
	}
	out := make([]float64, 0, len(cc.NodeDiskScale))
	for _, s := range cc.NodeDiskScale {
		out = append(out, s)
	}
	sort.Float64s(out)
	return out
}
