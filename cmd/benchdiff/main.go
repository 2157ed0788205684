// Command benchdiff compares two BENCH_flow.json files (see
// scripts/bench_json.sh) and flags ns/op and allocs/op regressions beyond
// a tolerance. It is the repo's perf-regression gate: verify.sh
// regenerates a fresh measurement and diffs it against the committed
// baseline, so a PR that slows the simulation core down — or quietly
// re-introduces allocations on the zero-alloc hot path — fails
// verification instead of landing silently.
//
// Usage:
//
//	benchdiff [-max-regress 10] [-no-drift] BASELINE.json FRESH.json
//
// The gate is drift-normalized: the median delta across all shared
// benchmarks estimates the global drift between the two measurements
// (for ns/op: CPU contention, frequency scaling — baseline files are
// recorded on the same machine, but rarely at the same moment), and a
// benchmark fails only when it regresses more than max-regress BEYOND
// that drift. A real code regression hits specific benchmarks and sticks
// out of the median; a slow machine shifts every benchmark together and
// cancels out. allocs/op goes through the identical normalization and
// the same retry-once policy in scripts/benchdiff.sh — allocation counts
// of single-threaded simulation benchmarks are nearly deterministic, so
// their drift estimate is ~0 and the gate effectively fires on any
// >max-regress allocation growth, which is what protects the pooled hot
// path. Benchmarks matching -alloc-exempt (default: the worker-pool
// "Parallel" benchmark, whose allocation count depends on goroutine
// scheduling and per-P sync.Pool locality) report allocations without
// gating on them; their ns/op still gates. The ClusterScaling rows also
// gate ns_per_event — the size-comparable cost metric docs/perf.md
// tracks — under the same drift normalization; benchmarks matching
// -event-exempt (default: the paper-scale 8192 trend row) report it
// without gating. -no-drift disables the normalization for same-session
// A/B comparisons.
//
// Benchmarks present in only one file are reported but never fatal (the
// set legitimately changes as benchmarks are added), and so are rows the
// baseline marks "record_only": a new benchmark is recorded first and
// gated once a second baseline agrees with the first. Record-only rows
// stay out of the drift estimate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

type benchFile struct {
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsPerEvent is the size-comparable cost metric of the ClusterScaling
	// sweep (wall-clock normalized by simulated events); zero for every
	// other benchmark, whose JSON omits the field.
	NsPerEvent float64 `json:"ns_per_event,omitempty"`
	// RecordOnly marks a row reported but not gated (see the package doc).
	RecordOnly bool `json:"record_only,omitempty"`
}

func load(path string) (map[string]benchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchEntry, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 10,
		"fail when any benchmark's ns/op regresses more than this percentage beyond the run-wide drift")
	noDrift := flag.Bool("no-drift", false,
		"gate on raw deltas instead of drift-normalized ones (same-session A/B comparisons)")
	allocExempt := flag.String("alloc-exempt", "Parallel",
		"regexp of benchmarks whose allocs/op is scheduler-dependent and only reported, never gated (empty disables)")
	eventExempt := flag.String("event-exempt", "/8192",
		"regexp of benchmarks whose ns/event is only reported, never gated (the paper-scale 8192 trend row; empty disables)")
	flag.Parse()
	var allocExemptRe *regexp.Regexp
	if *allocExempt != "" {
		re, err := regexp.Compile(*allocExempt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -alloc-exempt pattern: %v\n", err)
			os.Exit(2)
		}
		allocExemptRe = re
	}
	var eventExemptRe *regexp.Regexp
	if *eventExempt != "" {
		re, err := regexp.Compile(*eventExempt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -event-exempt pattern: %v\n", err)
			os.Exit(2)
		}
		eventExemptRe = re
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress PCT] [-no-drift] BASELINE.json FRESH.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	fresh, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	shared := 0
	for name := range base {
		if _, ok := fresh[name]; ok {
			shared++
		}
	}
	if shared == 0 {
		// Without a single shared benchmark nothing gates, and the gate
		// would pass vacuously forever (e.g. after a bench-regex drift in
		// bench_json.sh). Fail loudly instead.
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark names shared between baseline and fresh run; the gate cannot gate")
		os.Exit(1)
	}

	nsDrift, allocDrift, nsevDrift := 0.0, 0.0, 0.0
	if !*noDrift {
		nsDrift = medianDelta(base, fresh, func(b benchEntry) float64 { return b.NsPerOp })
		allocDrift = medianDelta(base, fresh, func(b benchEntry) float64 { return b.AllocsPerOp })
		// ns/event shares ns/op's drift estimator rather than growing its
		// own: only the handful of ClusterScaling rows carry the metric,
		// and a median over so few points would track their very
		// regressions instead of the machine.
		nsevDrift = nsDrift
		fmt.Printf("machine drift (median delta): %+.1f%% ns/op, %+.1f%% allocs/op\n", nsDrift, allocDrift)
		// A globally faster machine (or a cross-cutting allocation win)
		// must not turn unchanged benchmarks into "relative regressions":
		// normalize only when the fresh run is worse across the board.
		if nsDrift < 0 {
			nsDrift = 0
		}
		if allocDrift < 0 {
			allocDrift = 0
		}
		if nsevDrift < 0 {
			nsevDrift = 0
		}
	}

	failed := false
	for _, b := range orderedNames(base, fresh) {
		ob, inBase := base[b]
		nb, inFresh := fresh[b]
		switch {
		case !inBase:
			fmt.Printf("%-44s new benchmark: %.0f ns/op, %.0f allocs/op\n", b, nb.NsPerOp, nb.AllocsPerOp)
		case !inFresh:
			fmt.Printf("%-44s missing from fresh run (baseline %.0f ns/op)\n", b, ob.NsPerOp)
		case ob.RecordOnly:
			fmt.Printf("%-44s %12.0f -> %12.0f ns/op  (allocs %.0f -> %.0f)  record-only\n",
				b, ob.NsPerOp, nb.NsPerOp, ob.AllocsPerOp, nb.AllocsPerOp)
		default:
			delta := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			status := "ok"
			if delta-nsDrift > *maxRegress {
				status = "REGRESSION(ns/op)"
				failed = true
			}
			if allocExemptRe == nil || !allocExemptRe.MatchString(b) {
				switch {
				case ob.AllocsPerOp > 0:
					allocDelta := 100 * (nb.AllocsPerOp - ob.AllocsPerOp) / ob.AllocsPerOp
					if allocDelta-allocDrift > *maxRegress {
						status = "REGRESSION(allocs/op)"
						failed = true
					}
				case nb.AllocsPerOp > 0:
					// A zero-alloc baseline is the strongest claim the gate
					// protects: any allocation at all is a regression, not a
					// division-by-zero to skip.
					status = "REGRESSION(allocs/op)"
					failed = true
				}
			}
			event := ""
			if ob.NsPerEvent > 0 && nb.NsPerEvent > 0 {
				evDelta := 100 * (nb.NsPerEvent - ob.NsPerEvent) / ob.NsPerEvent
				event = fmt.Sprintf("  (ns/event %.0f -> %.0f %+.1f%%)", ob.NsPerEvent, nb.NsPerEvent, evDelta)
				if evDelta-nsevDrift > *maxRegress &&
					(eventExemptRe == nil || !eventExemptRe.MatchString(b)) {
					status = "REGRESSION(ns/event)"
					failed = true
				}
			}
			fmt.Printf("%-44s %12.0f -> %12.0f ns/op  %+6.1f%%  (allocs %.0f -> %.0f)%s  %s\n",
				b, ob.NsPerOp, nb.NsPerOp, delta, ob.AllocsPerOp, nb.AllocsPerOp, event, status)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: ns/op, allocs/op or ns/event regressed more than %.0f%% beyond drift on at least one benchmark\n", *maxRegress)
		os.Exit(1)
	}
}

// medianDelta estimates the global drift of one metric between the two
// measurements: the median per-benchmark delta (percent). Requires at
// least one shared benchmark; with none, drift is zero.
func medianDelta(base, fresh map[string]benchEntry, metric func(benchEntry) float64) float64 {
	var deltas []float64
	for name, ob := range base {
		if nb, ok := fresh[name]; ok && !ob.RecordOnly && metric(ob) > 0 {
			deltas = append(deltas, 100*(metric(nb)-metric(ob))/metric(ob))
		}
	}
	if len(deltas) == 0 {
		return 0
	}
	sort.Float64s(deltas)
	mid := len(deltas) / 2
	if len(deltas)%2 == 1 {
		return deltas[mid]
	}
	return (deltas[mid-1] + deltas[mid]) / 2
}

// orderedNames returns the union of benchmark names, baseline order first
// (deterministic output without depending on map order).
func orderedNames(base, fresh map[string]benchEntry) []string {
	seen := make(map[string]bool, len(base)+len(fresh))
	var out []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	// Maps lose file order; sort for stability instead.
	for _, m := range []map[string]benchEntry{base, fresh} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			add(n)
		}
	}
	return out
}
