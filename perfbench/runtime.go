package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"rcmp/internal/core"
	"rcmp/internal/dmr"
	"rcmp/internal/engine"
	"rcmp/internal/lineage"
	"rcmp/internal/wire"
	"rcmp/internal/workload"
)

// The runtime workload's chain shape, shared by dmr and the engine: it is
// large enough that compute and RPC outweigh dmr's 150 ms detection timer.
const (
	rtWorkers      = 4
	rtSlots        = 2
	rtBlockRecords = 50
	rtJobs         = 4
	rtReducers     = 8
	rtRecords      = 2000 // per input partition (one per worker)
	rtKillAfterJob = 2
)

// runtimeState alternates a dmr chain over loopback TCP with the same
// chain on the in-memory engine; both lose one worker after job 2 and must
// reproduce the failure-free output digests. The chains cycle through
// inputs (data seed and victim) drawn from the workload seed.
type runtimeState struct {
	inputs []rtInput
	next   int

	loadMs, detectMs, digestMs []float64
	runMs                      map[string][]float64 // RunLog kind -> ms
	recovery                   []planCounts         // per dmr chain
}

type rtInput struct {
	seed   int64
	victim int
	ref    []workload.Digest // failure-free output digests
}

type planCounts struct{ plans, mappers, reducers int }

func setupRuntime(seed int64) (state, error) {
	s := &runtimeState{}
	s.reset()
	for _, sub := range subSeeds(seed, inputsPerRun) {
		in := rtInput{seed: sub, victim: rand.New(rand.NewSource(sub)).Intn(rtWorkers)}
		eng, err := s.engineChain(nil, 0, 0, in, false)
		if err != nil {
			return nil, fmt.Errorf("engine reference chain: %w", err)
		}
		for _, d := range eng {
			in.ref = append(in.ref, workload.Digest(d))
		}
		s.inputs = append(s.inputs, in)
	}
	// Warm-up: one failure-free dmr chain, which must match the engine.
	digs, _, _, err := s.dmrChain(nil, 0, 0, s.inputs[0], false)
	if err == nil {
		err = sameDigests(digs, s.inputs[0].ref)
	}
	if err != nil {
		return nil, fmt.Errorf("dmr reference chain: %w", err)
	}
	s.reset()
	return s, nil
}

func (s *runtimeState) classes() []class {
	return []class{
		{name: "dmr_chain", p50Name: "dmr_chain_ms", unit: "ms"},
		{name: "engine_chain", p50Name: "engine_chain_ms", unit: "ms"},
	}
}

func (s *runtimeState) reset() {
	s.loadMs, s.detectMs, s.digestMs, s.recovery = nil, nil, nil, nil
	s.runMs = map[string][]float64{}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// dmrChain runs one chain on a fresh master and workers. With kill, the
// benchmark's hook kills the victim after job 2 and waits for the master to
// detect it; that wait, cluster start-up and teardown are returned as
// excluded time.
func (s *runtimeState) dmrChain(tr *tracer, op int64, root int32, in rtInput, kill bool) (digs []workload.Digest, exclude time.Duration, pc planCounts, err error) {
	t0 := time.Now()
	var m *dmr.Master
	err = tr.call(op, root, "dmr.StartMaster", func() (err error) {
		m, err = dmr.StartMaster(dmr.MasterConfig{ListenAddr: "127.0.0.1:0", SlotsPerWorker: rtSlots, Timing: dmr.TestTiming()}, rtBlockRecords)
		return err
	})
	if err != nil {
		return nil, 0, pc, err
	}
	var workers []*dmr.Worker
	defer func() {
		t := time.Now()
		for _, w := range workers {
			w.Kill()
		}
		m.Close()
		exclude += time.Since(t)
	}()
	for i := 0; i < rtWorkers; i++ {
		var w *dmr.Worker
		err = tr.call(op, root, "dmr.StartWorker", func() (err error) {
			w, err = dmr.StartWorker(dmr.WorkerConfig{ID: i, MasterAddr: m.Addr(), Timing: dmr.TestTiming()})
			return err
		})
		if err != nil {
			return nil, time.Since(t0), pc, err
		}
		workers = append(workers, w)
	}
	exclude = time.Since(t0)

	cfg := dmr.ChainConfig{
		Jobs: rtJobs, NumReducers: rtReducers, RecordsPerPartition: rtRecords,
		Split: true, Seed: in.seed,
		PlanObserver: func(_ int, plan *core.Plan, _ *lineage.Chain) {
			pc.plans++
			mp, rd := plan.TotalRecomputedTasks()
			pc.mappers += mp
			pc.reducers += rd
		},
	}
	var hookErr error
	if kill {
		cfg.AfterJob = func(job int) {
			if job != rtKillAfterJob {
				return
			}
			id := tr.begin(op, root, "kill-and-detect")
			defer tr.end(id)
			k0 := time.Now()
			defer func() {
				exclude += time.Since(k0)
				s.detectMs = append(s.detectMs, msSince(k0))
			}()
			workers[in.victim].Kill()
			for deadline := k0.Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if m.FailedNodes()[in.victim] {
					return
				}
			}
			hookErr = fmt.Errorf("master did not detect the death of worker %d", in.victim)
		}
	}
	var d *dmr.Driver
	if err = tr.call(op, root, "dmr.NewDriver", func() (err error) {
		d, err = dmr.NewDriver(m, cfg)
		return err
	}); err != nil {
		return nil, exclude, pc, err
	}
	l0 := time.Now()
	if err = tr.call(op, root, "dmr.Driver.LoadInput", d.LoadInput); err != nil {
		return nil, exclude, pc, err
	}
	s.loadMs = append(s.loadMs, msSince(l0))
	chain := tr.begin(op, root, "dmr.Driver.RunChain")
	err = d.RunChain()
	tr.end(chain)
	for _, r := range d.RunLog {
		s.runMs[r.Kind] = append(s.runMs[r.Kind], float64(r.End.Sub(r.Start))/1e6)
	}
	if err == nil {
		err = hookErr
	}
	if err != nil {
		return nil, exclude, pc, err
	}
	g0 := time.Now()
	err = tr.call(op, root, "dmr.Driver.OutputDigests", func() (err error) {
		digs, err = d.OutputDigests()
		return err
	})
	s.digestMs = append(s.digestMs, msSince(g0))
	return digs, exclude, pc, err
}

func (s *runtimeState) engineChain(tr *tracer, op int64, root int32, in rtInput, kill bool) ([]engine.Digest, error) {
	cfg := engine.Config{
		Nodes: rtWorkers, NumReducers: rtReducers, Jobs: rtJobs, RecordsPerNode: rtRecords,
		RecordsPerBlock: rtBlockRecords, Seed: in.seed, Split: true,
	}
	if kill {
		cfg.Failures = []engine.Failure{{Before: rtKillAfterJob + 1, Node: in.victim}}
	}
	var e *engine.Engine
	if err := tr.call(op, root, "engine.New", func() (err error) {
		e, err = engine.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.call(op, root, "engine.Engine.Run", e.Run); err != nil {
		return nil, err
	}
	var digs []engine.Digest
	err := tr.call(op, root, "engine.Engine.OutputDigests", func() (err error) {
		digs, err = e.OutputDigests()
		return err
	})
	return digs, err
}

func (s *runtimeState) iterate(m *meter) {
	in := s.inputs[s.next%len(s.inputs)]
	s.next++
	m.timed("dmr_chain", func(op int64, root int32) (time.Duration, error) {
		digs, exclude, pc, err := s.dmrChain(m.tr, op, root, in, true)
		if err == nil {
			err = sameDigests(digs, in.ref)
		}
		if err == nil && pc.plans != 1 {
			err = fmt.Errorf("%d recovery plans, want 1", pc.plans)
		}
		if err == nil {
			s.recovery = append(s.recovery, pc)
		}
		return exclude, err
	})
	m.timed("engine_chain", func(op int64, root int32) (time.Duration, error) {
		digs, err := s.engineChain(m.tr, op, root, in, true)
		if err != nil {
			return 0, err
		}
		got := make([]workload.Digest, len(digs))
		for i, d := range digs {
			got[i] = workload.Digest(d)
		}
		return 0, sameDigests(got, in.ref)
	})
}

func sameDigests(got, want []workload.Digest) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d output partitions, want %d", len(got), len(want))
	}
	for p := range got {
		if got[p] != want[p] {
			return fmt.Errorf("output partition %d digest differs from the failure-free run", p)
		}
	}
	return nil
}

func (s *runtimeState) finish(m *meter) {
	m.setLayer("dmr.load_ms", median(s.loadMs))
	m.setLayer("dmr.detect_ms", median(s.detectMs))
	m.setLayer("dmr.digest_ms", median(s.digestMs))
	for kind, xs := range s.runMs {
		m.setLayer("dmr.run_ms."+kind, median(xs))
	}
	var plans, mappers, reducers []float64
	for _, pc := range s.recovery {
		plans = append(plans, float64(pc.plans))
		mappers = append(mappers, float64(pc.mappers))
		reducers = append(reducers, float64(pc.reducers))
	}
	m.setLayer("core.plans", median(plans))
	m.setLayer("core.recomputed_mappers", median(mappers))
	m.setLayer("core.recomputed_reducers", median(reducers))
	if m.tr == nil {
		return
	}
	if err := probeWire(m); err != nil {
		m.fail("wire probe: %v", err)
	}
	probeMap(m, s.inputs[0].seed)
}

// wireProbeCalls is enough calls for a supported p99 (ten beyond it).
const wireProbeCalls = 1200

// probeWire times 64 KiB echo Calls over loopback.
func probeWire(m *meter) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := wire.NewServer(ln, func(_ net.Addr, req any) (any, error) { return req, nil })
	defer srv.Close()
	cl, err := wire.Dial(srv.Addr(), time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	wire.Register(payload)
	us := make([]float64, 0, wireProbeCalls)
	for i := 0; i < wireProbeCalls; i++ {
		t0 := time.Now()
		resp, err := cl.Call(payload, 5*time.Second)
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
		if b, ok := resp.([]byte); !ok || len(b) != len(payload) {
			return fmt.Errorf("echo returned %T of the wrong size", resp)
		}
	}
	m.setLayer("wire.call_us.p50", median(us))
	if p, ok := percentile(us, 99); ok {
		m.setLayer("wire.call_us.p99", p)
	}
	return nil
}

// probeMap times workload.Map, the chain's map UDF, per record.
func probeMap(m *meter, seed int64) {
	recs := workload.Generate(20000, seed)
	var ns []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for _, rec := range recs {
			if err := workload.Map(rec, func(workload.Record) {}); err != nil {
				m.fail("workload.Map: %v", err)
				return
			}
		}
		ns = append(ns, float64(time.Since(t0))/float64(len(recs)))
	}
	m.setLayer("workload.map_ns_per_record", median(ns))
}

func (s *runtimeState) close() {}
