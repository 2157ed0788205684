package experiments

import (
	"runtime"
	"testing"
)

// planPoints are capacity-plan inputs on both sides of the analytic twin's
// 2^17-task sample cap: the quick chain crosses it between 4096 and 131072
// nodes, the paper chain between 1024 and 4096.
var planPoints = []struct {
	cfg      Config
	deadline PlanDeadline
	digest   string
}{
	{Config{Scale: ScaleQuick, Nodes: 64}, 0, "db8f1eac8739310d244940f7c1251b49de6c0efd01adc4860660b5406d3bb8a3"},
	{Config{Scale: ScaleQuick, Nodes: 4096, Tenants: 4}, 700, "284376d4db197784a71ec30731ab7ee23cf0859cd5b747542b54ee3581ad0e0f"},
	{Config{Scale: ScaleQuick, Nodes: 131072, Tenants: 4}, 700, "2e58f6e5b083225a432b89f2c5955e92f08279da20e197509d071f38434b9066"},
	{Config{Scale: ScalePaper, Nodes: 1024, Seed: 5}, 0, "1f22370dfdd9acd6fb7e6f9b4ad304a79512f4575176683f9f61bbacd349e14a"},
	{Config{Scale: ScalePaper, Nodes: 4096, Tenants: 16}, 5000, "f5e21bdfc075ccff0f6fb134abce4f2b07f0c95a7404b452215372d3c8fac13e"},
}

// TestCapacityPlanDigests pins every plan's full output (text and values)
// to digests recorded while plans still recorded per-task samples, so
// plan-path optimizations stay byte-identical.
func TestCapacityPlanDigests(t *testing.T) {
	for _, p := range planPoints {
		res, err := CapacityPlan(p.cfg, p.deadline)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != p.digest {
			t.Errorf("%s (deadline %g): digest %s, want %s", res.Name, float64(p.deadline), got, p.digest)
		}
	}
}

// TestCapacityPlanAllocationBound guards the plan path's flat cost: one
// CapacityPlan allocates well under 1 MB at any node count. Recording the
// twin's synthetic per-task samples would cost hundreds of megabytes at
// these points (quick scale at 4096 nodes and paper scale at 1024 nodes
// are the largest chains still under the sample cap). The minimum over a
// few calls discounts allocations by goroutines outside the test.
func TestCapacityPlanAllocationBound(t *testing.T) {
	const bound = 1 << 20
	for _, cfg := range []Config{
		{Scale: ScaleQuick, Nodes: 4096},
		{Scale: ScalePaper, Nodes: 1024},
	} {
		var ms runtime.MemStats
		least := uint64(1 << 63)
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := CapacityPlan(cfg, 0); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		if least >= bound {
			t.Errorf("%s scale, %d nodes: CapacityPlan allocated %d bytes, want < %d",
				cfg.Scale, cfg.Nodes, least, bound)
		}
	}
}
