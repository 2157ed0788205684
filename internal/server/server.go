package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"context"

	"rcmp/internal/experiments"
	"rcmp/internal/failure"
	"rcmp/internal/runner"
)

// Config sizes the serving mechanisms. The zero value is usable: every
// field falls back to the default named on it.
type Config struct {
	// Workers is the simulation pool size (default GOMAXPROCS).
	Workers int
	// MaxQueuedJobs bounds the global backlog of admitted-but-unstarted
	// jobs; submissions beyond it get 429 (default 4096).
	MaxQueuedJobs int
	// MaxClientBacklog bounds one client's queued+running jobs — the
	// fairness cap that keeps a single client from filling the whole
	// queue (default 1024).
	MaxClientBacklog int
	// MaxJobsPerRequest bounds one sweep's grid size; larger requests get
	// 413 (default 1024).
	MaxJobsPerRequest int
	// CacheEntries bounds the result cache (default 8192).
	CacheEntries int
	// RequestTimeout bounds how long one sweep request may wait for its
	// jobs (default 120s); requests can ask for less via timeout_sec but
	// never more.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = 4096
	}
	if c.MaxClientBacklog <= 0 {
		c.MaxClientBacklog = 1024
	}
	if c.MaxJobsPerRequest <= 0 {
		c.MaxJobsPerRequest = 1024
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8192
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	return c
}

// Server is the sweep service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg      Config
	cache    *resultCache
	sched    *scheduler
	mux      *http.ServeMux
	draining atomic.Bool
	// admitMu serializes the acquire-entries-then-submit phase of sweep
	// requests. It makes admission atomic with respect to cache interest:
	// if a request is rejected and rolls its owned entries back, no other
	// request can have parked on them in between, so a rejected sweep
	// never strands waiters on jobs nobody scheduled.
	admitMu chMutex
}

// chMutex is a channel-based mutex, acquirable under a context so a
// canceled request cannot queue on admission forever.
type chMutex chan struct{}

func (m chMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chMutex) unlock() { <-m }

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		admitMu: make(chMutex, 1),
	}
	s.sched = newScheduler(s.cache, cfg.Workers, cfg.MaxQueuedJobs, cfg.MaxClientBacklog)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new sweeps are refused with 503, every
// admitted job runs to completion, then the worker pool exits. If ctx
// expires first, still-queued jobs are failed and workers stop after
// their current job. Callers should shut the http.Server down afterwards
// so streaming responses finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.shutdown(ctx)
}

// Stats is the /v1/stats payload.
type Stats struct {
	Cache        cacheStats `json:"cache"`
	QueuedJobs   int        `json:"queued_jobs"`
	RunningJobs  int        `json:"running_jobs"`
	ExecutedJobs int64      `json:"executed_jobs"`
	Workers      int        `json:"workers"`
	Draining     bool       `json:"draining"`
}

func (s *Server) statsNow() Stats {
	q, r := s.sched.depth()
	return Stats{
		Cache:        s.cache.stats(),
		QueuedJobs:   q,
		RunningJobs:  r,
		ExecutedJobs: s.sched.executedJobs(),
		Workers:      s.cfg.Workers,
		Draining:     s.draining.Load(),
	}
}

// SweepRequest is the /v1/sweep body: the same sweep-grid dimensions as
// the rcmpsim CLI (-fig/-run → specs, -quick → scale, -seeds, -failure-at,
// -schedule, -nodes). Empty dimensions fall back exactly like
// runner.Grid: per-spec default scale/seed, each figure's own failure
// position and cluster shape.
type SweepRequest struct {
	// Specs lists registry keys ("8b", "trace-replay", ...) or "all".
	Specs []string `json:"specs"`
	// Scale is "paper", "quick" or "smoke" ("" = per-spec default).
	Scale string `json:"scale,omitempty"`
	// Seeds, FailureAts, Schedules, Nodes, Tenants and Speculation are
	// sweep dimensions; schedules use the CLI pulse syntax ("2@15,4@5x2",
	// "stic:1"). Tenants>1 applies to multi-tenant specs only; other specs
	// record it as a per-job error.
	Seeds       []int64  `json:"seeds,omitempty"`
	FailureAts  []int    `json:"failure_ats,omitempty"`
	Schedules   []string `json:"schedules,omitempty"`
	Nodes       []int    `json:"nodes,omitempty"`
	Tenants     []int    `json:"tenants,omitempty"`
	Speculation []bool   `json:"speculation,omitempty"`
	// Engines selects execution engines per grid point: "des" and/or
	// "analytic" (empty = DES only). The analytic engine accepts nodes up
	// to 1048576 where the DES caps at 16384.
	Engines []string `json:"engines,omitempty"`
	// SeedSet expands every seed into that many consecutive seeds and adds
	// mean/CI95 aggregates to the final report (see runner.Grid.SeedSet).
	SeedSet int `json:"seed_set,omitempty"`
	// Stream selects NDJSON streaming (default true). With false the
	// response is one deterministic runner.Report JSON document.
	Stream *bool `json:"stream,omitempty"`
	// TimeoutSec caps this request's wait below the server default.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// buildJobs lowers a SweepRequest onto the runner grid.
func buildJobs(req SweepRequest) ([]runner.Job, error) {
	if len(req.Specs) == 0 {
		return nil, fmt.Errorf("specs is required (registry keys or \"all\")")
	}
	var specs []experiments.Spec
	for _, key := range req.Specs {
		k := strings.ToLower(strings.TrimSpace(key))
		if k == "all" {
			specs = experiments.Registry()
			break
		}
		sp, ok := experiments.Lookup(strings.TrimPrefix(k, "fig"))
		if !ok {
			return nil, fmt.Errorf("unknown spec %q (see /v1/experiments)", key)
		}
		specs = append(specs, sp)
	}
	var scales []experiments.Scale
	switch strings.ToLower(req.Scale) {
	case "":
	case "paper":
		scales = []experiments.Scale{experiments.ScalePaper}
	case "quick", "smoke":
		scales = []experiments.Scale{experiments.ScaleQuick}
	default:
		return nil, fmt.Errorf("unknown scale %q (want \"paper\", \"quick\" or \"smoke\")", req.Scale)
	}
	var scheds []failure.Schedule
	for _, spec := range req.Schedules {
		sched, err := failure.ParseSchedule(spec)
		if err != nil {
			return nil, err
		}
		scheds = append(scheds, sched)
	}
	var engines []experiments.Engine
	for _, name := range req.Engines {
		eng, err := experiments.ParseEngine(strings.ToLower(strings.TrimSpace(name)))
		if err != nil {
			return nil, err
		}
		engines = append(engines, eng)
	}
	if req.SeedSet < 0 || req.SeedSet > 1024 {
		return nil, fmt.Errorf("seed_set=%d out of range [0, 1024]", req.SeedSet)
	}
	return runner.Grid{
		Specs:       specs,
		Scales:      scales,
		Seeds:       req.Seeds,
		FailureAts:  req.FailureAts,
		Schedules:   scheds,
		Nodes:       req.Nodes,
		Tenants:     req.Tenants,
		Speculation: req.Speculation,
		Engines:     engines,
		SeedSet:     req.SeedSet,
	}.Jobs(), nil
}

// clientID identifies the requester for fair scheduling: the X-Client-ID
// header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type specInfo struct {
		Key  string `json:"key"`
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	var out []specInfo
	for _, sp := range experiments.Registry() {
		out = append(out, specInfo{Key: sp.Key, Name: sp.Name, Desc: sp.Desc})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsNow())
}

// maxBodyBytes caps request bodies. A larger body is refused with 413
// rather than parsed from a truncated prefix.
const maxBodyBytes = 1 << 20

// decodeBody reads a JSON request body into v, answering 413 for a body
// over maxBodyBytes and 400 for malformed JSON. It reports whether v holds
// the request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
		return false
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// requestTimeout applies a request's timeout_sec when it is below the
// server default. The comparison runs in seconds, so a value too large
// for a time.Duration keeps the default instead of overflowing into a
// negative, already-expired deadline.
func requestTimeout(def time.Duration, sec float64) time.Duration {
	if sec > 0 && sec < def.Seconds() {
		return time.Duration(sec * float64(time.Second))
	}
	return def
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// jobState tracks one grid job through a request.
type jobState struct {
	job   runner.Job
	e     *entry
	owner bool
}

// Stream event payloads (one JSON object per NDJSON line / SSE data frame).
type acceptedEvent struct {
	Type    string `json:"type"` // "accepted"
	Jobs    int    `json:"jobs"`
	Client  string `json:"client"`
	Timeout string `json:"timeout"`
}

type resultEvent struct {
	Type   string              `json:"type"` // "result"
	Index  int                 `json:"index"`
	Cache  string              `json:"cache"` // "hit" | "miss"
	Result runner.ReportResult `json:"result"`
}

type errorEvent struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

type reportEvent struct {
	Type   string        `json:"type"` // "report"
	Report runner.Report `json:"report"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	jobs, err := buildJobs(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(jobs) == 0 {
		http.Error(w, "empty sweep grid", http.StatusBadRequest)
		return
	}
	if len(jobs) > s.cfg.MaxJobsPerRequest {
		http.Error(w, fmt.Sprintf("sweep grid of %d jobs exceeds the per-request cap of %d",
			len(jobs), s.cfg.MaxJobsPerRequest), http.StatusRequestEntityTooLarge)
		return
	}

	timeout := requestTimeout(s.cfg.RequestTimeout, req.TimeoutSec)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	client := clientID(r)

	// Admission: register cache interest for every job, then submit the
	// misses as one atomic batch. admitMu makes reject-and-roll-back
	// invisible to concurrent requests (see its field comment).
	if err := s.admitMu.lock(ctx); err != nil {
		http.Error(w, "canceled before admission", http.StatusServiceUnavailable)
		return
	}
	states := make([]jobState, len(jobs))
	var owned []schedJob
	for i, j := range jobs {
		key := experiments.ConfigDigest(j.Key, j.Config)
		e, owner := s.cache.acquire(key)
		states[i] = jobState{job: j, e: e, owner: owner}
		if owner {
			owned = append(owned, schedJob{job: j, e: e})
		}
	}
	if err := s.sched.submit(client, owned); err != nil {
		for _, st := range states {
			s.cache.release(st.e)
		}
		s.admitMu.unlock()
		switch err {
		case errDraining:
			http.Error(w, "server draining", http.StatusServiceUnavailable)
		case errQueueFull, errClientBacklog:
			w.Header().Set("Retry-After", strconv.Itoa(s.sched.retryAfterSec()))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.admitMu.unlock()

	// Past admission: every entry is either scheduled or already
	// in-flight/cached. Release whatever we still hold on the way out
	// (abandoned sole-interest jobs are skipped by the workers).
	released := make([]bool, len(states))
	defer func() {
		for i, st := range states {
			if !released[i] {
				s.cache.release(st.e)
			}
		}
	}()

	stream := req.Stream == nil || *req.Stream
	sse := stream && strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	var write func(v any) error
	var flush func()
	if stream {
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Header().Set("Cache-Control", "no-store")
		flusher, _ := w.(http.Flusher)
		flush = func() {
			if flusher != nil {
				flusher.Flush()
			}
		}
		write = func(v any) error {
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			if sse {
				_, err = fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				_, err = fmt.Fprintf(w, "%s\n", b)
			}
			flush()
			return err
		}
		_ = write(acceptedEvent{Type: "accepted", Jobs: len(jobs), Client: client, Timeout: timeout.String()})
	}

	// Completion fan-in: one goroutine per job parks on its entry and
	// reports the index. The channel is buffered to len(jobs) so no
	// goroutine can leak blocked on send after a timeout.
	completions := make(chan int, len(states))
	for i := range states {
		go func(i int) {
			select {
			case <-states[i].e.done:
				completions <- i
			case <-ctx.Done():
			}
		}(i)
	}

	results := make([]runner.Result, len(states))
	completed := make([]bool, len(states))
	timedOut := false
	for n := 0; n < len(states); n++ {
		select {
		case i := <-completions:
			res := states[i].e.res
			results[i] = res
			completed[i] = true
			s.cache.release(states[i].e)
			released[i] = true
			if stream {
				rep := runner.NewReport([]runner.Result{res}, false)
				kind := "hit"
				if states[i].owner {
					kind = "miss"
				}
				if err := write(resultEvent{Type: "result", Index: i, Cache: kind, Result: rep.Results[0]}); err != nil {
					// Client gone; keep draining completions so admitted
					// jobs still land in the cache, but stop writing.
					write = func(any) error { return nil }
				}
			}
		case <-ctx.Done():
			timedOut = true
		}
		if timedOut {
			break
		}
	}

	for i := range states {
		if !completed[i] {
			results[i] = runner.Result{
				Name:   states[i].job.Name,
				Config: states[i].job.Config,
				Err:    "server: request timed out before the job completed",
			}
		}
	}

	report := runner.NewReport(results, false)
	if stream {
		if timedOut {
			_ = write(errorEvent{Type: "error", Error: "request timed out; unfinished jobs reported as errors"})
		}
		_ = write(reportEvent{Type: "report", Report: report})
		return
	}
	status := http.StatusOK
	if timedOut {
		status = http.StatusGatewayTimeout
	}
	// The non-streaming body is exactly the deterministic runner report —
	// byte-identical to `rcmpsim -json` over the same grid.
	b, err := runner.MarshalJSONDeterministic(results)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	_, _ = w.Write([]byte("\n"))
}
