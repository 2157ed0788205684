package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
	"rcmp/internal/server"
)

// The serve workload's request script: a seeded mix of repeated sweeps
// (served from the cache), fresh sweeps (run the DES) and capacity plans
// (run the analytic model), sent by one closed-loop client per CPU,
// because sweep users are scripts that wait for their report.
const (
	hitShare     = 0.5
	missShare    = 0.3 // the rest are plans
	planMinNodes = 64
	planMaxNodes = 1 << 20
	checkEvery   = 4   // every n-th miss and plan is checked against a direct call
	maxChecked   = 200 // bound on post-window direct calls per class

	// cacheEntries is far above the fresh requests a run can send (about
	// 125 a second on 2 CPUs), so no entry is ever evicted: an evicted
	// hit-set entry would be served as a miss. Every window checks that
	// the server evicted nothing.
	cacheEntries = 1 << 20
)

type serveReq struct {
	kind  string // "hit", "miss" or "plan"
	spec  string
	seed  int64
	nodes int
	hit   int // index into the hit set
}

type serveState struct {
	seed      int64
	specs     []string
	missBase  int64
	planBase  int64
	hitSet    []serveReq
	hitReport [][]byte // report line of each hit-set request

	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	next   atomic.Int64

	mu       sync.Mutex
	misses   []checked // sampled for the post-window check
	plans    []checked
	acceptMs map[string][]float64
	rejected int
}

// checked is a response kept for comparison against a direct call.
type checked struct {
	req  serveReq
	body []byte
}

func setupServe(seed int64) (state, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &serveState{seed: seed}
	for _, sp := range experiments.Registry() {
		s.specs = append(s.specs, sp.Key)
	}
	// Seed ranges never overlap: hit-set seeds below 2^20, fresh miss and
	// plan seeds counted up from disjoint bases.
	s.missBase = 1<<40 + rng.Int63n(1<<36)
	s.planBase = 1<<41 + rng.Int63n(1<<36)
	// One hit-set sweep per spec, so the cached working set has the same
	// make-up for every workload seed.
	for i, spec := range s.specs {
		s.hitSet = append(s.hitSet, serveReq{kind: "hit", spec: spec, seed: rng.Int63n(1 << 20), hit: i})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = server.New(server.Config{CacheEntries: cacheEntries})
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	n := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}

	// Warm the hit set: each request runs once here, and its report line
	// is what every later repeat must return byte for byte.
	for _, r := range s.hitSet {
		rep, cache, _, err := s.sweep(r, "warm")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warming %s seed %d: %w", r.spec, r.seed, err)
		}
		if cache != "miss" {
			s.close()
			return nil, fmt.Errorf("warming %s seed %d: cache %q, want miss", r.spec, r.seed, cache)
		}
		s.hitReport = append(s.hitReport, rep)
	}
	return s, nil
}

func (s *serveState) classes() []class {
	return []class{
		{name: "miss", p50Name: "miss_p50_ms", p99Name: "miss_p99_ms", unit: "ms"},
		{name: "hit", p50Name: "hit_p50_ms", p99Name: "hit_p99_ms", unit: "ms"},
		{name: "plan", p50Name: "plan_p50_ms", p99Name: "plan_p99_ms", unit: "ms"},
	}
}

// script returns request i of the run's script.
func (s *serveState) script(i int64) serveReq {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + i))
	u := rng.Float64()
	switch {
	case u < hitShare:
		return s.hitSet[rng.Intn(len(s.hitSet))]
	case u < hitShare+missShare:
		return serveReq{kind: "miss", spec: s.specs[rng.Intn(len(s.specs))], seed: s.missBase + i}
	default:
		// Log-uniform over [planMinNodes, planMaxNodes]: plan cost varies
		// by orders of magnitude with the node count.
		lo, hi := math.Log(planMinNodes), math.Log(planMaxNodes)
		nodes := int(math.Round(math.Exp(lo + rng.Float64()*(hi-lo))))
		return serveReq{kind: "plan", seed: s.planBase + i, nodes: nodes}
	}
}

func (s *serveState) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses, s.plans, s.rejected = nil, nil, 0
	s.acceptMs = map[string][]float64{}
}

// errRejected marks a 429: the request is refused, not served.
var errRejected = errors.New("429 too many requests")

func (s *serveState) post(path, client string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", client)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, errRejected
		}
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// sweep sends one single-job quick-scale sweep and returns the NDJSON
// report line, the job's cache outcome and the time to the "accepted"
// event.
func (s *serveState) sweep(r serveReq, client string) (report []byte, cache string, accept time.Duration, err error) {
	t0 := time.Now()
	resp, err := s.post("/v1/sweep", client, server.SweepRequest{Specs: []string{r.spec}, Scale: "quick", Seeds: []int64{r.seed}})
	if err != nil {
		return nil, "", 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var ev struct {
				Type  string `json:"type"`
				Cache string `json:"cache"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, "", 0, fmt.Errorf("bad stream line: %w", err)
			}
			switch ev.Type {
			case "accepted":
				accept = time.Since(t0)
			case "result":
				cache = ev.Cache
			case "report":
				report = bytes.TrimRight(line, "\n")
			case "error":
				return nil, "", 0, fmt.Errorf("stream error: %s", line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", 0, err
		}
	}
	if report == nil || cache == "" {
		return nil, "", 0, fmt.Errorf("stream ended without a result and a report")
	}
	return report, cache, accept, nil
}

func (s *serveState) plan(r serveReq, client string) (server.PlanResponse, []byte, error) {
	var pr server.PlanResponse
	resp, err := s.post("/v1/plan", client, server.PlanRequest{Seed: r.seed, Nodes: r.nodes})
	if err != nil {
		return pr, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return pr, nil, err
	}
	err = json.Unmarshal(body, &pr)
	return pr, body, err
}

// do sends one scripted request and checks what can be checked at once.
func (s *serveState) do(m *meter, op int64, root int32, r serveReq, client string) error {
	id := m.tr.begin(op, root, "http/"+r.kind)
	defer m.tr.end(id)
	if r.kind == "plan" {
		pr, body, err := s.plan(r, client)
		if err != nil {
			return s.noteErr(err)
		}
		if pr.Cache != "miss" || pr.Result.Error != "" {
			return fmt.Errorf("plan nodes=%d: cache %q, error %q", r.nodes, pr.Cache, pr.Result.Error)
		}
		s.mu.Lock()
		if op%checkEvery == 0 && len(s.plans) < maxChecked {
			s.plans = append(s.plans, checked{r, body})
		}
		s.mu.Unlock()
		return nil
	}
	rep, cache, accept, err := s.sweep(r, client)
	if err != nil {
		return s.noteErr(err)
	}
	if cache != r.kind {
		return fmt.Errorf("%s %s seed %d: served as a cache %s", r.kind, r.spec, r.seed, cache)
	}
	if r.kind == "hit" && !bytes.Equal(rep, s.hitReport[r.hit]) {
		return fmt.Errorf("hit %s seed %d: report differs from the first response", r.spec, r.seed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acceptMs[r.kind] = append(s.acceptMs[r.kind], float64(accept)/1e6)
	if r.kind == "miss" && op%checkEvery == 0 && len(s.misses) < maxChecked {
		s.misses = append(s.misses, checked{r, rep})
	}
	return nil
}

func (s *serveState) noteErr(err error) error {
	if errors.Is(err, errRejected) {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
	}
	return err
}

func (s *serveState) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// iterate runs the closed loop for the whole window.
func (s *serveState) iterate(m *meter) {
	before, err := s.stats()
	if err != nil {
		m.fail("stats: %v", err)
	}
	stopPoll := make(chan struct{})
	var polled sync.WaitGroup
	depth := 0
	if m.tr != nil {
		polled.Add(1)
		go func() {
			defer polled.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if st, err := s.stats(); err == nil && st.QueuedJobs > depth {
						depth = st.QueuedJobs
					}
				}
			}
		}()
	}
	m.closedLoop = true
	var clients sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		clients.Add(1)
		go func(client string) {
			defer clients.Done()
			for m.open() {
				r := s.script(s.next.Add(1) - 1)
				m.timed(r.kind, func(op int64, root int32) (time.Duration, error) {
					return 0, s.do(m, op, root, r, client)
				})
			}
		}("perfbench-" + strconv.Itoa(c))
	}
	clients.Wait()
	close(stopPoll)
	polled.Wait()

	after, err := s.stats()
	if err != nil {
		m.fail("stats: %v", err)
	}
	if after.Cache.Evicted != 0 {
		m.fail("server evicted %d cache entries", after.Cache.Evicted)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	if total := hits + after.Cache.Misses - before.Cache.Misses; total > 0 {
		m.setLayer("server.hit_ratio", float64(hits)/float64(total))
	}
	m.setLayer("server.queue_depth_max", float64(depth))
}

// finish compares the sampled misses and plans with direct runner.RunOne
// and experiments.CapacityPlan calls of the same jobs; their times are the
// layers' service times.
func (s *serveState) finish(m *meter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var serviceMs, planMs []float64
	for _, c := range s.misses {
		sp, _ := experiments.Lookup(c.req.spec)
		job := runner.Grid{Specs: []experiments.Spec{sp}, Scales: []experiments.Scale{experiments.ScaleQuick}, Seeds: []int64{c.req.seed}}.Jobs()[0]
		res := runner.RunOne(job)
		serviceMs = append(serviceMs, float64(res.Elapsed)/1e6)
		want, err := json.Marshal(struct {
			Type   string        `json:"type"`
			Report runner.Report `json:"report"`
		}{"report", runner.NewReport([]runner.Result{res}, false)})
		if err != nil || !bytes.Equal(want, c.body) {
			m.fail("miss %s seed %d: served report differs from runner.RunOne", c.req.spec, c.req.seed)
		}
	}
	for _, c := range s.plans {
		var got server.PlanResponse
		if err := json.Unmarshal(c.body, &got); err != nil {
			m.fail("plan nodes=%d: %v", c.req.nodes, err)
			continue
		}
		cfg := experiments.Config{Scale: experiments.ScaleQuick, Seed: c.req.seed, Nodes: c.req.nodes, Engine: experiments.EngineAnalytic}
		t0 := time.Now()
		res, err := experiments.CapacityPlan(cfg, 0)
		planMs = append(planMs, msSince(t0))
		if err != nil {
			m.fail("plan nodes=%d: direct CapacityPlan: %v", c.req.nodes, err)
			continue
		}
		want := runner.NewReport([]runner.Result{{Name: got.Result.Name, Config: cfg, Res: res}}, false).Results[0]
		a, errA := json.Marshal(got.Result)
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			m.fail("plan nodes=%d seed %d: served result differs from experiments.CapacityPlan", c.req.nodes, c.req.seed)
		}
	}
	m.setLayer("runner.service_ms.miss", median(serviceMs))
	m.setLayer("analytic.plan_ms", median(planMs))
	m.setLayer("server.accept_ms.hit", median(s.acceptMs["hit"]))
	m.setLayer("server.accept_ms.miss", median(s.acceptMs["miss"]))
	m.setLayer("server.rejected", float64(s.rejected))
	m.setLayer("server.plan_p50_ms", median(m.classSamples("plan")))
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}
