package main

import (
	"math"

	"rcmp/internal/experiments"
)

type metricDef struct{ name, unit string }

// layerPackages are the rcmp/internal packages some workload runs, which
// a CPU-profile fold charges time to; samples with no frame in any of them
// are charged to "other".
var layerPackages = []string{
	"analytic", "cluster", "core", "des", "dfs", "dmr", "engine",
	"experiments", "failure", "flow", "lineage", "mapreduce", "metrics",
	"middleware", "runner", "server", "textplot", "wire", "workload",
}

// layerDefs lists every per-layer metric a traced run prints, in the order
// of BENCHMARK.json. A metric a workload does not exercise reads 0.
func layerDefs() []metricDef {
	var d []metricDef
	for _, p := range append(append([]string(nil), layerPackages...), "other") {
		d = append(d, metricDef{"cpu_ms." + p, "ms"})
	}
	d = append(d,
		metricDef{"mapreduce.ns_per_event.fail", "ns"},
		metricDef{"mapreduce.ns_per_event.free", "ns"},
		metricDef{"mapreduce.events.fail", "count"},
		metricDef{"mapreduce.events.free", "count"},
		metricDef{"mapreduce.cancelled_runs", "count"},
		metricDef{"mapreduce.cpu_gap_share", "share"},
		metricDef{"core.plans", "count"},
		metricDef{"core.recomputed_mappers", "count"},
		metricDef{"core.recomputed_reducers", "count"},
	)
	for _, sp := range experiments.Registry() {
		d = append(d, metricDef{"runner.job_ms." + sp.Key, "ms"})
	}
	d = append(d,
		metricDef{"runner.idle_share", "share"},
		metricDef{"runner.service_ms.miss", "ms"},
		metricDef{"server.accept_ms.hit", "ms"},
		metricDef{"server.accept_ms.miss", "ms"},
		metricDef{"server.hit_ratio", "share"},
		metricDef{"server.queue_depth_max", "count"},
		metricDef{"server.rejected", "count"},
		metricDef{"server.plan_p50_ms", "ms"},
		metricDef{"analytic.plan_ms", "ms"},
		metricDef{"wire.call_us.p50", "us"},
		metricDef{"wire.call_us.p99", "us"},
		metricDef{"dmr.load_ms", "ms"},
		metricDef{"dmr.run_ms.initial", "ms"},
		metricDef{"dmr.run_ms.recompute", "ms"},
		metricDef{"dmr.run_ms.restart", "ms"},
		metricDef{"dmr.detect_ms", "ms"},
		metricDef{"dmr.digest_ms", "ms"},
		metricDef{"workload.map_ns_per_record", "ns"},
		metricDef{"go.alloc_mb_per_op", "MB"},
		metricDef{"go.gc_cpu_share", "share"},
		metricDef{"trace.overhead.primary", "share"},
		metricDef{"trace.overhead.control", "share"},
		metricDef{"trace.overhead.ops", "share"},
	)
	return d
}

// perLayer builds the traced run's metrics: the profile fold per
// operation, the Go runtime's allocation and GC share, the tracing
// overhead against the untraced window plain, and whatever the workload
// measured at its layer boundaries.
func (m *meter) perLayer(fold cpuFold, plain *meter) map[string]metric {
	out := map[string]metric{}
	for _, d := range layerDefs() {
		out[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) {
		if d, ok := out[name]; ok {
			out[name] = metric{v, d.Unit}
		}
	}
	ops := float64(m.ops)
	if ops == 0 {
		ops = 1
	}
	byLayer := map[string]float64{}
	for layer, ns := range fold.total() {
		if _, ok := out["cpu_ms."+layer]; !ok {
			layer = "other"
		}
		byLayer[layer] += ns
	}
	for layer, ns := range byLayer {
		set("cpu_ms."+layer, ns/1e6/ops)
	}

	// Share of the primary-minus-control CPU gap per operation that the
	// fold charges to mapreduce.
	perOp := func(cls, layer string) float64 {
		n := float64(len(m.samples[cls]))
		if n == 0 {
			return 0
		}
		sum := 0.0
		for l, ns := range fold[cls] {
			if layer == "" || l == layer {
				sum += ns
			}
		}
		return sum / n
	}
	if gap := perOp(m.primary, "") - perOp(m.control, ""); gap > 0 {
		set("mapreduce.cpu_gap_share", (perOp(m.primary, "mapreduce")-perOp(m.control, "mapreduce"))/gap)
	}

	set("go.alloc_mb_per_op", m.runtimeDelta("/gc/heap/allocs:bytes")/ops/(1<<20))
	if busy := m.runtimeDelta("/cpu/classes/total:cpu-seconds") - m.runtimeDelta("/cpu/classes/idle:cpu-seconds"); busy > 0 {
		set("go.gc_cpu_share", m.runtimeDelta("/cpu/classes/gc/total:cpu-seconds")/busy)
	}

	for name, v := range overheads(m, plain) {
		set("trace.overhead."+name, v)
	}

	for name, v := range m.layer {
		set(name, v)
	}
	return out
}

// overheads compares window a with window b: the primary and control
// medians as a/b − 1, and throughput as b/a − 1, so that a slower a reads
// positive on all three.
func overheads(a, b *meter) map[string]float64 {
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x/y - 1
	}
	return map[string]float64{
		"primary": ratio(median(a.samples[a.primary]), median(b.samples[b.primary])),
		"control": ratio(median(a.samples[a.control]), median(b.samples[b.control])),
		"ops":     ratio(b.opsPerSecond(), a.opsPerSecond()),
	}
}

// overheadResolved says, per overhead figure, whether the traced window
// differs from the pooled untraced windows by more than the untraced
// window after it differs from the one before. Where it does not, the
// figure is within the host's drift and does not resolve the cost of
// tracing.
func overheadResolved(traced, plain, before, after *meter) map[string]bool {
	drift := overheads(after, before)
	out := map[string]bool{}
	for name, v := range overheads(traced, plain) {
		out[name] = math.Abs(v) > math.Abs(drift[name])
	}
	return out
}
