package main

import (
	"fmt"
	"time"

	"rcmp/internal/cluster"
	"rcmp/internal/core"
	"rcmp/internal/experiments"
	"rcmp/internal/lineage"
	"rcmp/internal/mapreduce"
)

const scaleNodes = 4096

// scaleState alternates a failure-free 4096-node what-if with the same
// what-if plus one failure. Only at this size do the ladder queue, class
// accounting, aggregated shuffle and fast-forward paths run; the free run
// is the control a failure-path change must leave unchanged. The pairs
// cycle through chain seeds drawn from the workload seed, because cost
// varies with the chain seed even where the event count does not.
type scaleState struct {
	ccfg  cluster.Config
	pairs []scalePair
	next  int
}

type scalePair struct {
	free, fail mapreduce.ChainConfig
	ref        map[string]scaleOutcome // by class: the first run's outcome
}

// scaleOutcome is what must repeat exactly across runs of one what-if.
type scaleOutcome struct {
	total, events      float64
	startedRuns, plans int
	cancelled          int
	mappers, reducers  int
}

func setupScale(seed int64) (state, error) {
	s := &scaleState{}
	for _, sub := range subSeeds(seed, inputsPerRun) {
		c := experiments.Paper()
		c.Seed = sub
		ccfg, cfg := experiments.WeakScalingSetup(c, scaleNodes)
		cfg.NumJobs = 3
		cfg.ShuffleAggregation = mapreduce.ShuffleAggAuto
		cfg.FastForward = mapreduce.FastForwardAuto
		fail := cfg
		// The victim (Node -1) is drawn from the chain seed.
		fail.Failures = []mapreduce.Injection{{AtRun: 3, After: 2, Node: -1}}
		s.ccfg = ccfg
		s.pairs = append(s.pairs, scalePair{free: cfg, fail: fail, ref: map[string]scaleOutcome{}})
	}
	// Warm-up: one failure-free what-if.
	if _, err := s.whatIf(nil, 0, 0, s.pairs[0].free); err != nil {
		return nil, fmt.Errorf("scale warm-up: %w", err)
	}
	return s, nil
}

func (s *scaleState) classes() []class {
	return []class{
		{name: "whatif_fail", p50Name: "whatif_fail_ms", unit: "ms"},
		{name: "whatif_free", p50Name: "whatif_free_ms", unit: "ms"},
	}
}

func (s *scaleState) whatIf(tr *tracer, op int64, root int32, cfg mapreduce.ChainConfig) (scaleOutcome, error) {
	var out scaleOutcome
	cfg.PlanObserver = func(_ int, plan *core.Plan, _ *lineage.Chain) {
		out.plans++
		mp, rd := plan.TotalRecomputedTasks()
		out.mappers += mp
		out.reducers += rd
	}
	var res *mapreduce.Result
	err := tr.call(op, root, "mapreduce.RunChain", func() (err error) {
		res, err = mapreduce.RunChain(s.ccfg, cfg)
		return err
	})
	if err != nil {
		return out, err
	}
	out.total, out.events, out.startedRuns = float64(res.Total), float64(res.Events), res.StartedRuns
	for _, r := range res.Runs {
		if r.Cancelled {
			out.cancelled++
		}
	}
	return out, nil
}

func (s *scaleState) iterate(m *meter) {
	p := s.pairs[s.next%len(s.pairs)]
	s.next++
	for _, cls := range []string{"whatif_free", "whatif_fail"} {
		cfg := p.free
		if cls == "whatif_fail" {
			cfg = p.fail
		}
		wantPlans := 0
		if cls == "whatif_fail" {
			wantPlans = 1
		}
		m.timed(cls, func(op int64, root int32) (time.Duration, error) {
			out, err := s.whatIf(m.tr, op, root, cfg)
			if err != nil {
				return 0, err
			}
			if out.plans != wantPlans {
				return 0, fmt.Errorf("%d recovery plans, want %d", out.plans, wantPlans)
			}
			ref, ok := p.ref[cls]
			if !ok {
				p.ref[cls] = out
			} else if out != ref {
				return 0, fmt.Errorf("outcome %+v differs from the first run's %+v", out, ref)
			}
			return 0, nil
		})
	}
}

func (s *scaleState) reset() {}

func (s *scaleState) finish(m *meter) {
	// Per-class figures are medians over the run's chain seeds; recovery
	// counts are per primary (failure) operation.
	var cancelled, plans, mappers, reducers []float64
	for _, c := range []struct{ cls, suffix string }{{"whatif_fail", "fail"}, {"whatif_free", "free"}} {
		var events []float64
		for _, p := range s.pairs {
			if ref, ok := p.ref[c.cls]; ok {
				events = append(events, ref.events)
				if c.suffix == "fail" {
					cancelled = append(cancelled, float64(ref.cancelled))
					plans = append(plans, float64(ref.plans))
					mappers = append(mappers, float64(ref.mappers))
					reducers = append(reducers, float64(ref.reducers))
				}
			}
		}
		ev := median(events)
		m.setLayer("mapreduce.events."+c.suffix, ev)
		if ev > 0 {
			m.setLayer("mapreduce.ns_per_event."+c.suffix, median(m.classSamples(c.cls))*1e6/ev)
		}
	}
	m.setLayer("mapreduce.cancelled_runs", median(cancelled))
	m.setLayer("core.plans", median(plans))
	m.setLayer("core.recomputed_mappers", median(mappers))
	m.setLayer("core.recomputed_reducers", median(reducers))
}

func (s *scaleState) close() {}
