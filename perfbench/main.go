// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives each layer from outside, through its public functions, and
// runs one named workload per process:
//
//	perfbench --workload scale --seed 1 --seconds 20 --trace 0
//
// A run sets its workload up nine times, five before its window and four
// after it (reporting the median set-up time), measures operations for
// --seconds seconds, checks every output,
// and prints two lines on standard output: a detail line with every timing
// class (sample count, median, p99 or "unsupported") and the named metrics
// of its workload, then the result line
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 a traced window (spans and a CPU profile) is bracketed by
// two untraced half windows, and the metrics are the per-layer metrics
// plus the tracing overhead. See README.md for the workloads and the
// metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart stamps the earliest point the program can observe, so the
// first set-up includes process start-up.
var processStart = time.Now()

// A run sets its workload up setupBefore times before the window (the
// last set-up is the one measured) and setupAfter times after it, so that
// setup_s, the median of all rounds, samples the host over the whole run
// as the window's metrics do.
const (
	setupBefore = 5
	setupAfter  = 4
)

// A workload builds fresh state from its seed; the state runs iterations
// of operations into a meter until the window closes.
type workloadDef struct {
	name  string
	setup func(seed int64) (state, error)
}

type state interface {
	// classes lists the timed operation classes, primary then control.
	classes() []class
	// reset clears what the workload accumulates over one window.
	reset()
	// iterate runs one round of operations (one or more timed ops).
	iterate(m *meter)
	// finish runs the checks that are too costly to make inside the
	// window, and, when traced, the direct layer probes.
	finish(m *meter)
	close()
}

var workloads = []workloadDef{
	{"registry", setupRegistry},
	{"scale", setupScale},
	{"serve", setupServe},
	{"runtime", setupRuntime},
}

func main() {
	name := flag.String("workload", "", "workload: registry, scale, serve or runtime")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for trace files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, outDir string) error {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var setups []float64
	setUp := func(first bool) (state, error) {
		start := processStart
		if !first {
			runtime.GC()
			start = time.Now()
		}
		st, err := wl.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return st, nil
	}
	var st state
	for i := 0; i < setupBefore; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = setUp(i == 0); err != nil {
			return err
		}
	}
	window := time.Duration(seconds * float64(time.Second))

	res := result{Metrics: map[string]metric{}}
	detail := map[string]any{"workload": name, "seed": seed}
	if !traced {
		m := measure(st, window, nil)
		st.finish(m)
		res.add(m)
		e2e := m.endToEnd()
		e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics = e2e
		detail["timings"] = m.timingDetail()
		detail["failures"] = m.failures
	} else {
		// The traced window sits between two untraced half windows, so
		// a host that speeds up or slows down during the run moves both
		// sides of the overhead comparison alike.
		before := measure(st, window/2, nil)
		st.finish(before)
		tr := newTracer()
		prof, err := startProfile()
		if err != nil {
			return err
		}
		m := measure(st, window, tr)
		fold, err := prof.stop()
		if err != nil {
			return err
		}
		st.finish(m)
		after := measure(st, window/2, nil)
		st.finish(after)
		for _, w := range []*meter{before, m, after} {
			res.add(w)
		}
		detail["timings"] = m.timingDetail()
		detail["untraced_timings"] = map[string]any{"before": before.timingDetail(), "after": after.timingDetail()}
		plain := newMeter(nil, st.classes())
		plain.merge(before)
		plain.merge(after)
		detail["trace_overhead_resolved"] = overheadResolved(m, plain, before, after)
		detail["failures"] = append(m.failures, plain.failures...)
		res.Metrics = m.perLayer(fold, plain)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		profPath := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", name, seed))
		if err := os.WriteFile(profPath, prof.buf.Bytes(), 0o644); err != nil {
			return err
		}
		detail["trace_file"], detail["profile_file"] = path, profPath
	}
	st.close()
	for i := 0; i < setupAfter; i++ {
		after, err := setUp(false)
		if err != nil {
			return err
		}
		after.close()
	}
	detail["setup_s"] = setups
	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	if res.Attempted == 0 {
		// A window too short for one operation still reports the
		// operation it started and could not finish as failed.
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	detail["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, line := range []any{map[string]any{"detail": detail}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(m *meter) {
	r.Attempted += m.attempted
	r.Failed += m.failed
}

// measure runs iterations until the window closes. Operations in flight at
// the deadline finish and count.
func measure(st state, window time.Duration, tr *tracer) *meter {
	m := newMeter(tr, st.classes())
	st.reset()
	m.begin(window)
	for m.open() {
		st.iterate(m)
	}
	m.stop()
	return m
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// inputsPerRun is how many seeded inputs a workload cycles through in one
// run, so that a run's medians average over inputs instead of resting on
// the cost of one.
const inputsPerRun = 4

// subSeeds derives n input seeds from the workload seed.
func subSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 40)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
