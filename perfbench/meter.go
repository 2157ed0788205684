package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// class names one kind of timed operation. Every workload has a primary
// class (the work it exists to measure) and a control class (the same
// code paths without that work); their medians are the end-to-end
// primary_p50_ms and control_p50_ms. p50Name and p99Name are the names
// the detail line prints the class under (wall_s, hit_p99_ms, ...).
type class struct {
	name    string
	p50Name string
	p99Name string // "" when a p99 of this class is not a named metric
	unit    string // "ms" or "s"
}

// meter collects one measurement window. It is safe for concurrent use by
// the closed-loop clients of the serve workload.
type meter struct {
	tr       *tracer
	classes  []class
	primary  string
	control  string
	start    time.Time
	deadline time.Time
	elapsed  time.Duration // measured time, summed over merged windows
	nextOp   atomic.Int64

	// closedLoop marks a window of concurrent clients (the serve
	// workload), whose throughput counts every request.
	closedLoop bool

	mu        sync.Mutex
	samples   map[string][]float64 // class -> latencies in ms
	ops       int64
	attempted int64
	failed    int64
	failures  []string
	layer     map[string]float64

	rtStart, rtEnd []metrics.Sample
}

const maxFailureNotes = 20

func newMeter(tr *tracer, classes []class) *meter {
	return &meter{
		tr: tr, classes: classes, primary: classes[0].name, control: classes[1].name,
		samples: map[string][]float64{}, layer: map[string]float64{},
	}
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func (m *meter) begin(window time.Duration) {
	m.rtStart = readRuntime()
	m.start = time.Now()
	m.deadline = m.start.Add(window)
}

func (m *meter) stop() {
	m.elapsed = time.Since(m.start)
	m.rtEnd = readRuntime()
}

// merge folds the samples and counts of b into m, as one window whose
// length is the sum of both. Layer figures and runtime readings stay m's.
func (m *meter) merge(b *meter) {
	for cls, xs := range b.samples {
		m.samples[cls] = append(m.samples[cls], xs...)
	}
	m.ops += b.ops
	m.attempted += b.attempted
	m.failed += b.failed
	m.failures = append(m.failures, b.failures...)
	m.elapsed += b.elapsed
	m.closedLoop = m.closedLoop || b.closedLoop
}

func (m *meter) open() bool { return time.Now().Before(m.deadline) }

// timed runs one operation of a class and records its latency, less the
// part fn reports as spent in the benchmark's own waits. Under tracing the
// operation gets a root span and runs under a pprof label naming its class.
func (m *meter) timed(cls string, fn func(op int64, parent int32) (exclude time.Duration, err error)) {
	op := m.nextOp.Add(1)
	var exclude time.Duration
	var err error
	t0 := time.Now()
	if m.tr == nil {
		exclude, err = fn(op, 0)
	} else {
		root := m.tr.begin(op, 0, cls)
		pprof.Do(context.Background(), pprof.Labels("class", cls), func(context.Context) {
			exclude, err = fn(op, root)
		})
		m.tr.end(root)
	}
	d := time.Since(t0) - exclude
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops++
	m.attempted++
	if err != nil {
		m.noteLocked(fmt.Sprintf("%s: %v", cls, err))
		return
	}
	m.samples[cls] = append(m.samples[cls], float64(d)/1e6)
}

// fail counts an operation that completed but failed a later output check.
func (m *meter) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteLocked(fmt.Sprintf(format, args...))
}

func (m *meter) noteLocked(msg string) {
	m.failed++
	if len(m.failures) < maxFailureNotes {
		m.failures = append(m.failures, msg)
	}
}

func (m *meter) setLayer(name string, v float64) {
	m.mu.Lock()
	m.layer[name] = v
	m.mu.Unlock()
}

func (m *meter) classSamples(cls string) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.samples[cls]...)
}

// opsPerSecond is the rate of the workload's main job. A serial workload
// counts its primary operations per second spent on them, so the control
// operations between them do not dilute it. The serve workload's closed
// loop counts every request per second of window: the request mix is its
// job.
func (m *meter) opsPerSecond() float64 {
	if m.closedLoop {
		if w := m.elapsed.Seconds(); w > 0 {
			return float64(m.ops) / w
		}
		return 0
	}
	xs := m.samples[m.primary]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if sum > 0 {
		return float64(len(xs)) / (sum / 1000)
	}
	return 0
}

// opsCounted is the number of operations opsPerSecond counts.
func (m *meter) opsCounted() int64 {
	if m.closedLoop {
		return m.ops
	}
	return int64(len(m.samples[m.primary]))
}

// endToEnd returns the window's end-to-end metrics, less the two that the
// run itself supplies (setup_s and peak_rss_mb).
func (m *meter) endToEnd() map[string]metric {
	return map[string]metric{
		"ops_per_s":      {m.opsPerSecond(), "1/s"},
		"primary_p50_ms": {median(m.samples[m.primary]), "ms"},
		"control_p50_ms": {median(m.samples[m.control]), "ms"},
	}
}

// percentile is the nearest-rank p-th percentile of xs, and whether at
// least ten samples lie beyond it — the rule for reporting a tail at all.
func percentile(xs []float64, p float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, false
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], len(s)-1-k >= 10
}

// timingDetail reports every class with its sample count, median and p99,
// under its own metric names; an unsupported p99 is named, not computed.
func (m *meter) timingDetail() map[string]any {
	out := map[string]any{}
	for _, c := range m.classes {
		xs := m.samples[c.name]
		scale := 1.0
		if c.unit == "s" {
			scale = 1e-3
		}
		out[c.p50Name] = map[string]any{"value": median(xs) * scale, "unit": c.unit, "n": len(xs)}
		if c.p99Name != "" {
			v := any("unsupported")
			if p, ok := percentile(xs, 99); ok {
				v = p * scale
			}
			out[c.p99Name] = map[string]any{"value": v, "unit": c.unit, "n": len(xs)}
		}
	}
	out["ops_per_s"] = map[string]any{"value": m.opsPerSecond(), "unit": "1/s", "n": m.opsCounted()}
	return out
}

// runtimeDelta returns the change of one runtime metric over the window.
func (m *meter) runtimeDelta(name string) float64 {
	for i, s := range m.rtStart {
		if s.Name != name {
			continue
		}
		a, b := s.Value, m.rtEnd[i].Value
		switch a.Kind() {
		case metrics.KindUint64:
			return float64(b.Uint64()) - float64(a.Uint64())
		case metrics.KindFloat64:
			return b.Float64() - a.Float64()
		}
	}
	return 0
}
