package failure

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
)

// schedule.go generalizes the paper's single-shot failure injection into
// trace-driven failure schedules. A Schedule is an ordered list of Pulses —
// "Nodes machines fail together, After seconds into the AtRun-th started
// job run" — which is exactly the structure of the STIC/SUG@R traces behind
// Figure 2: most failure days lose one or two machines, outage days lose
// many at once, and failures keep arriving while earlier ones are still
// being recovered from. FromTrace samples schedules from Generate traces so
// those statistics drive the simulator; ParseSchedule accepts the CLI
// syntax used by rcmpsim's -schedule flag.

// Pulse is one injection of a failure schedule: Nodes nodes fail together,
// After seconds into the AtRun-th started job run. Run counting matches
// mapreduce.Injection: recomputation and restart runs increment the counter
// too, so a pulse can deliberately land in the middle of a recovery
// cascade.
type Pulse struct {
	// AtRun is the 1-based started-run index the pulse is tied to.
	AtRun int
	// After is the delay in seconds from that run's start.
	After float64
	// Nodes is how many nodes fail together at this pulse (>= 1).
	Nodes int
}

// Schedule is an ordered multi-failure scenario. The zero value is the
// empty schedule, which experiment harnesses treat as "no override".
type Schedule struct {
	// Name labels the schedule in figure titles, job names and reports.
	// Optional: Label falls back to the canonical pulse syntax.
	Name   string
	Pulses []Pulse
}

// Empty reports whether the schedule carries no pulses.
func (s Schedule) Empty() bool { return len(s.Pulses) == 0 }

// TotalNodes returns the number of node failures the schedule injects.
func (s Schedule) TotalNodes() int {
	total := 0
	for _, p := range s.Pulses {
		total += p.Nodes
	}
	return total
}

// Validate reports schedule errors: pulses must target run >= 1 with a
// non-negative offset and at least one node, in non-decreasing run order.
func (s Schedule) Validate() error {
	prev := 0
	for i, p := range s.Pulses {
		switch {
		case p.AtRun < 1:
			return fmt.Errorf("failure: schedule %s pulse %d targets run %d; runs are 1-based", s.Label(), i, p.AtRun)
		case p.After < 0:
			return fmt.Errorf("failure: schedule %s pulse %d has negative offset %v", s.Label(), i, p.After)
		case p.Nodes < 1:
			return fmt.Errorf("failure: schedule %s pulse %d fails %d nodes; want >= 1", s.Label(), i, p.Nodes)
		case p.AtRun < prev:
			return fmt.Errorf("failure: schedule %s pulse %d at run %d out of order (previous run %d)", s.Label(), i, p.AtRun, prev)
		}
		prev = p.AtRun
	}
	return nil
}

// String renders the canonical pulse syntax, e.g. "2@15x1,4@5x2"
// (run@secondsxnodes). ParseSchedule accepts this form back.
func (s Schedule) String() string {
	var b strings.Builder
	for i, p := range s.Pulses {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d@%gx%d", p.AtRun, p.After, p.Nodes)
	}
	return b.String()
}

// Label is the display name: Name when set, the pulse syntax otherwise.
func (s Schedule) Label() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Empty() {
		return "(empty)"
	}
	return s.String()
}

// Capped returns a copy whose total node losses are bounded by budget:
// pulses are shrunk (and then dropped) in order once the budget is spent.
// Simulated clusters are far smaller than the 100+-node traced clusters, so
// replaying a trace day verbatim could destroy the whole cluster; the cap
// keeps the schedule survivable while preserving the pulse structure.
func (s Schedule) Capped(budget int) Schedule {
	out := Schedule{Name: s.Name}
	for _, p := range s.Pulses {
		if budget <= 0 {
			break
		}
		if p.Nodes > budget {
			p.Nodes = budget
		}
		budget -= p.Nodes
		out.Pulses = append(out.Pulses, p)
	}
	return out
}

// pulseAfter is the paper's injection offset: failures land 15s into a run.
const pulseAfter = 15

// FromTrace samples a failure schedule for a chain of runs job runs from a
// synthetic cluster trace: each run is assigned one day drawn uniformly
// from the generated trace with an RNG seeded by seed (independent of the
// trace's own Seed, so one trace yields many schedules), and every day with
// new failures becomes a pulse 15s into that run. Per-pulse node counts are
// capped at maxNodes — the traced clusters have an order of magnitude more
// nodes than the simulated ones, so an uncapped outage day would wipe the
// simulation out rather than stress its recovery path.
func FromTrace(cfg TraceConfig, runs, maxNodes int, seed int64) (Schedule, error) {
	if runs < 1 {
		return Schedule{}, fmt.Errorf("failure: FromTrace needs runs >= 1, got %d", runs)
	}
	if maxNodes < 1 {
		return Schedule{}, fmt.Errorf("failure: FromTrace needs maxNodes >= 1, got %d", maxNodes)
	}
	days, err := Generate(cfg)
	if err != nil {
		return Schedule{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Name: fmt.Sprintf("%s/s%d", cfg.Name, seed)}
	for run := 1; run <= runs; run++ {
		n := days[rng.Intn(len(days))]
		if n == 0 {
			continue
		}
		if n > maxNodes {
			n = maxNodes
		}
		s.Pulses = append(s.Pulses, Pulse{AtRun: run, After: pulseAfter, Nodes: n})
	}
	return s, nil
}

// Default sampling shape for CLI trace schedules: the paper's 7-job chain,
// outage days capped at 3 simultaneous losses.
const (
	DefaultScheduleRuns     = 7
	DefaultScheduleMaxNodes = 3
)

// pulseRe matches one CLI pulse: RUN[@SECONDS][xNODES]. SECONDS may carry
// an exponent, the form String prints for large and tiny offsets.
var pulseRe = regexp.MustCompile(`^(\d+)(?:@(\d*\.?\d+(?:e[+-]?\d+)?))?(?:x(\d+))?$`)

// ParseSchedule parses the CLI schedule syntax:
//
//   - "stic" or "sugar" (optionally "stic:SEED") samples a schedule from
//     the corresponding Figure-2 trace with FromTrace's defaults, and
//   - a comma-separated pulse list "RUN[@SECONDS][xNODES],..." builds an
//     explicit schedule; seconds default to 15 and nodes to 1, so
//     "2@15,4@5x2" fails one node 15s into run 2 and two more nodes 5s
//     into run 4.
//
// An empty spec returns the empty schedule.
func ParseSchedule(spec string) (Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Schedule{}, nil
	}
	if name, seedStr, isTrace := traceSpec(spec); isTrace {
		var cfg TraceConfig
		switch name {
		case "stic":
			cfg = STICTrace()
		case "sugar", "sug@r":
			cfg = SUGARTrace()
		}
		seed := int64(0)
		if seedStr != "" {
			v, err := strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("failure: bad trace-schedule seed %q: %v", seedStr, err)
			}
			seed = v
		}
		return FromTrace(cfg, DefaultScheduleRuns, DefaultScheduleMaxNodes, seed)
	}
	var s Schedule
	for _, tok := range strings.Split(spec, ",") {
		m := pulseRe.FindStringSubmatch(strings.TrimSpace(tok))
		if m == nil {
			return Schedule{}, fmt.Errorf("failure: bad schedule pulse %q; want RUN[@SECONDS][xNODES]", tok)
		}
		p := Pulse{After: pulseAfter, Nodes: 1}
		var err error
		p.AtRun, err = strconv.Atoi(m[1])
		if err == nil && m[2] != "" {
			p.After, err = strconv.ParseFloat(m[2], 64)
		}
		if err == nil && m[3] != "" {
			p.Nodes, err = strconv.Atoi(m[3])
		}
		if err != nil {
			return Schedule{}, fmt.Errorf("failure: bad schedule pulse %q: %v", tok, err)
		}
		s.Pulses = append(s.Pulses, p)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// traceSpec splits a "NAME[:SEED]" trace-sampling spec, reporting whether
// NAME is one of the known traces.
func traceSpec(spec string) (name, seed string, ok bool) {
	name = strings.ToLower(spec)
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name, seed = name[:i], name[i+1:]
	}
	switch name {
	case "stic", "sugar", "sug@r":
		return name, seed, true
	}
	return "", "", false
}
