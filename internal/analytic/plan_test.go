package analytic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"rcmp/internal/cluster"
	"rcmp/internal/mapreduce"
)

// planShape mirrors experiments.CapacityPlan's workload at a node count:
// the SLOTS 2-2 STIC chain (7 jobs at paper scale, 4 at quick), reducers
// sized for one wave, a failure 15 s into the second started run, and
// SPLIT at the registry's ratio of 8.
func planShape(paper bool, nodes int, split bool) (cluster.Config, mapreduce.GraphConfig) {
	cc := cluster.STICConfig(2, 2)
	cc.Nodes = nodes
	cfg := mapreduce.ChainConfig{
		Mode:         mapreduce.ModeRCMP,
		NumJobs:      7,
		NumReducers:  2 * nodes,
		InputPerNode: 4 * cluster.GB,
		Failures:     []mapreduce.Injection{{AtRun: 2, After: 15, Node: 3}},
		Split:        split,
	}
	if !paper {
		cfg.NumJobs = 4
		cfg.InputPerNode = 512 * cluster.MB
		cfg.BlockSize = 128 * cluster.MB
	}
	if split {
		cfg.SplitRatio = 8
	}
	return cc, mapreduce.GraphConfig{ChainConfig: cfg, Jobs: linearGraph(cfg.NumJobs)}
}

// sampledSession evaluates a session the way PlanSession did before plans
// stopped recording task samples: both single-tenant evaluations emit
// them whenever the chain fits under sampleCap. It reports whether they
// did, so the comparison below provably exercised the sampling path.
func sampledSession(t *testing.T, ccfg cluster.Config, cfg mapreduce.GraphConfig, tenants int) (sessionEval, bool) {
	t.Helper()
	cfg.ChainConfig = cfg.ChainConfig.WithDefaults()
	cfg.NumJobs = len(cfg.Jobs)
	ev, err := newEval(Default, ccfg, cfg.ChainConfig, cfg.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	ev.replay()
	freeCfg := cfg.ChainConfig
	freeCfg.Failures = nil
	evFree, err := newEval(Default, ccfg, freeCfg, cfg.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	evFree.replay()
	return newSessionEval(ev, evFree, tenants), ev.samples && evFree.samples
}

// samePlan compares two plans bit for bit.
func samePlan(a, b SessionPlan) bool {
	return math.Float64bits(a.FreeMakespan) == math.Float64bits(b.FreeMakespan) &&
		math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
		math.Float64bits(a.Recovery) == math.Float64bits(b.Recovery) &&
		math.Float64bits(a.Utilization) == math.Float64bits(b.Utilization)
}

// TestPlanSessionIndependentOfTaskSamples pins that dropping task samples
// from the plan path changes no answer: PlanSession is bit-identical to
// the sample-recording evaluation across the node range (below and above
// sampleCap), tenant counts, both scales and both recovery strategies.
func TestPlanSessionIndependentOfTaskSamples(t *testing.T) {
	for _, paper := range []bool{false, true} {
		for _, nodes := range []int{64, 1024, 4096, 131072} {
			for _, split := range []bool{false, true} {
				for _, tenants := range []int{1, 4} {
					name := fmt.Sprintf("paper=%t/nodes=%d/split=%t/tenants=%d", paper, nodes, split, tenants)
					ccfg, cfg := planShape(paper, nodes, split)
					got, err := Default.PlanSession(ccfg, cfg, tenants)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					se, sampled := sampledSession(t, ccfg, cfg, tenants)
					if want := se.plan(ccfg); !samePlan(got, want) {
						t.Errorf("%s: PlanSession %+v, sampled evaluation %+v", name, got, want)
					}
					// Every shape below 2^17 tasks must have taken the sampling
					// path, or the comparison proves nothing there.
					if mustSample := nodes <= 1024 || (!paper && nodes == 4096); mustSample && !sampled {
						t.Errorf("%s: reference evaluation recorded no task samples", name)
					}
				}
			}
		}
	}
}

// TestRunMultiTenantResultPinned pins RunMultiTenant's full result, task
// samples included, to digests recorded before the failure-free reference
// stopped recording samples: the samples it returns come from the
// evaluation with failures, which still records them.
func TestRunMultiTenantResultPinned(t *testing.T) {
	cases := []struct {
		paper   bool
		nodes   int
		split   bool
		tenants int
		digest  string
	}{
		{false, 64, true, 4, "73d7d680a431684a0cc5730c447fdc6b444f95002a1ee8a3dc206f27830b1861"},
		{false, 256, false, 1, "408813539a549e15162f8dda4cb9e98b8226ea197f15d9523e88ac7d00549637"},
		{true, 64, true, 2, "c85483f70d93e1484b263246209c98daa1aa1c73c43f505acae4a769fb19f89b"},
	}
	for _, c := range cases {
		ccfg, cfg := planShape(c.paper, c.nodes, c.split)
		res, err := Default.RunMultiTenant(ccfg, cfg, c.tenants)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tenants[0].Recorder.Tasks) == 0 {
			t.Fatalf("paper=%t nodes=%d: no task samples", c.paper, c.nodes)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("paper=%t nodes=%d split=%t tenants=%d: result digest %s, want %s",
				c.paper, c.nodes, c.split, c.tenants, got, c.digest)
		}
	}
}
