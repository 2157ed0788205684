package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// quickPerPaper is how many quick-scale registry passes follow each
// paper-scale pass. The quick pass is the control: the same specs and
// runner with small inputs, so per-job overheads dominate it. Quick passes
// cycle through seeds drawn from the workload seed.
const quickPerPaper = 5

// registryState runs every registered spec once per pass for the workload
// seed through runner.Runner with one worker per CPU — what
// `rcmpsim -fig all` does.
type registryState struct {
	pool     runner.Runner
	paper    []runner.Job
	refPaper []byte
	quick    [][]runner.Job // one job list per quick seed
	refQuick [][]byte
	next     int

	jobMs     map[string][]float64 // spec key -> paper-pass job times
	busyMs    float64              // summed job time over paper passes
	paperWall float64              // summed paper-pass wall time, ms
}

func setupRegistry(seed int64) (state, error) {
	specs := experiments.Registry()
	s := &registryState{
		pool:  runner.Runner{Workers: runtime.NumCPU()},
		paper: runner.Grid{Specs: specs, Scales: []experiments.Scale{experiments.ScalePaper}, Seeds: []int64{seed}}.Jobs(),
		jobMs: map[string][]float64{},
	}
	// Warm-up: one quick pass per seed, which is also its reference report.
	for _, sub := range subSeeds(seed, inputsPerRun) {
		jobs := runner.Grid{Specs: specs, Scales: []experiments.Scale{experiments.ScaleQuick}, Seeds: []int64{sub}}.Jobs()
		ref, err := passReport(s.pool.Run(jobs))
		if err != nil {
			return nil, fmt.Errorf("registry warm-up: %w", err)
		}
		s.quick = append(s.quick, jobs)
		s.refQuick = append(s.refQuick, ref)
	}
	return s, nil
}

func (s *registryState) classes() []class {
	return []class{
		{name: "paper_pass", p50Name: "wall_s", unit: "s"},
		{name: "quick_pass", p50Name: "quick_wall_s", unit: "s"},
	}
}

// passReport is a pass's deterministic JSON report (Elapsed dropped), or
// the first job error.
func passReport(res []runner.Result) ([]byte, error) {
	for _, r := range res {
		if r.Err != "" {
			return nil, fmt.Errorf("%s: %s", r.Name, r.ErrMessage())
		}
	}
	return runner.MarshalJSONDeterministic(res)
}

// pass runs one registry pass and checks it against ref, storing the
// first report as the reference. The check's time is excluded.
func (s *registryState) pass(m *meter, cls string, jobs []runner.Job, ref *[]byte) {
	m.timed(cls, func(op int64, root int32) (time.Duration, error) {
		if m.tr != nil {
			jobs = tracedJobs(m.tr, op, root, jobs)
		}
		var res []runner.Result
		t0 := time.Now()
		_ = m.tr.call(op, root, "runner.Runner.Run", func() error {
			res = s.pool.Run(jobs)
			return nil
		})
		wall := time.Since(t0)
		c0 := time.Now()
		rep, err := passReport(res)
		if err == nil && *ref != nil && !bytes.Equal(rep, *ref) {
			err = fmt.Errorf("report differs from the run's first pass")
		}
		if *ref == nil {
			*ref = rep
		}
		if err == nil && cls == "paper_pass" {
			s.paperWall += float64(wall) / 1e6
			for i, r := range res {
				ms := float64(r.Elapsed) / 1e6
				s.jobMs[jobs[i].Key] = append(s.jobMs[jobs[i].Key], ms)
				s.busyMs += ms
			}
		}
		return time.Since(c0), err
	})
}

// tracedJobs wraps each job's experiment call in a span under the pass.
func tracedJobs(tr *tracer, op int64, root int32, jobs []runner.Job) []runner.Job {
	out := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		run, key := j.Run, j.Key
		j.Run = func(c experiments.Config) (*experiments.Result, error) {
			id := tr.begin(op, root, "experiments.Spec.Exec/"+key)
			defer tr.end(id)
			return run(c)
		}
		out[i] = j
	}
	return out
}

func (s *registryState) reset() {
	s.jobMs, s.busyMs, s.paperWall = map[string][]float64{}, 0, 0
}

func (s *registryState) iterate(m *meter) {
	s.pass(m, "paper_pass", s.paper, &s.refPaper)
	for i := 0; i < quickPerPaper; i++ {
		k := s.next % len(s.quick)
		s.next++
		s.pass(m, "quick_pass", s.quick[k], &s.refQuick[k])
	}
}

func (s *registryState) finish(m *meter) {
	for key, xs := range s.jobMs {
		m.setLayer("runner.job_ms."+key, median(xs))
	}
	if s.paperWall > 0 {
		m.setLayer("runner.idle_share", 1-s.busyMs/(float64(s.pool.Workers)*s.paperWall))
	}
}

func (s *registryState) close() {}
