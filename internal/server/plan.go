// plan.go is the /v1/plan endpoint: capacity planning on the analytic
// twin. A plan request asks "will SPLIT recovery hold my deadline at N
// nodes and T tenants?" and is answered by experiments.CapacityPlan —
// a closed-form evaluation, so the node range runs to 1048576 where
// /v1/sweep's DES jobs cap at 16384. A plan costs 40–100 µs and under
// 25 KB of allocation at any node count on a 2-vCPU host (111 ms and
// 174 MB at quick scale, 4096 nodes, while plans still recorded per-task
// samples; docs/perf.md has the table). Answers go through the same
// digest-keyed single-flight result cache as sweep jobs (keyed by
// experiments.PlanDigest, so a plan can never collide with a figure) and
// through the same scheduler, so fairness caps and drain semantics apply
// unchanged.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"rcmp/internal/experiments"
	"rcmp/internal/runner"
)

// PlanRequest is the /v1/plan body. Zero values mean: quick scale, seed
// 0, the setup's own cluster size, one tenant, the figure-default failure
// position, no deadline.
type PlanRequest struct {
	// Scale is "paper", "quick" or "smoke" ("" = quick: capacity planning
	// wants the calibrated quick shape, not a bigger chain).
	Scale string `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Nodes is the cluster size to plan for (up to 1048576).
	Nodes int `json:"nodes,omitempty"`
	// Tenants is the shared-cluster tenant count (utilization dial).
	Tenants int `json:"tenants,omitempty"`
	// FailureAt overrides which started run the failure hits.
	FailureAt int `json:"failure_at,omitempty"`
	// DeadlineSec, when > 0, adds meets-deadline verdicts judged against
	// the session makespan (simulated seconds).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// TimeoutSec caps this request's wait below the server default.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// PlanResponse is the /v1/plan answer.
type PlanResponse struct {
	// Result is the plan in the same shape as a sweep row: values carry
	// makespans, recovery costs and utilization for both strategies.
	Result runner.ReportResult `json:"result"`
	// SplitMeetsDeadline / NoSplitMeetsDeadline are present only when the
	// request set a deadline.
	SplitMeetsDeadline   *bool `json:"split_meets_deadline,omitempty"`
	NoSplitMeetsDeadline *bool `json:"no_split_meets_deadline,omitempty"`
	// Cache reports whether the answer was served from the result cache
	// ("hit") or computed by this request ("miss").
	Cache string `json:"cache"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	var req PlanRequest
	if !decodeBody(w, r, &req) {
		return
	}
	scale := experiments.ScaleQuick
	switch strings.ToLower(req.Scale) {
	case "", "quick", "smoke":
	case "paper":
		scale = experiments.ScalePaper
	default:
		http.Error(w, fmt.Sprintf("unknown scale %q (want \"paper\", \"quick\" or \"smoke\")", req.Scale), http.StatusBadRequest)
		return
	}
	if req.DeadlineSec < 0 {
		http.Error(w, "deadline_sec must be >= 0", http.StatusBadRequest)
		return
	}
	cfg := experiments.Config{
		Scale:     scale,
		Seed:      req.Seed,
		Nodes:     req.Nodes,
		Tenants:   req.Tenants,
		FailureAt: req.FailureAt,
		Engine:    experiments.EngineAnalytic,
	}
	deadline := experiments.PlanDeadline(req.DeadlineSec)
	job := runner.Job{
		Name:   planJobName(cfg, req.DeadlineSec),
		Key:    "plan",
		Config: cfg,
		Run: func(c experiments.Config) (*experiments.Result, error) {
			return experiments.CapacityPlan(c, deadline)
		},
	}

	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout(s.cfg.RequestTimeout, req.TimeoutSec))
	defer cancel()

	// Same admission protocol as /v1/sweep, for a one-job grid: register
	// cache interest, submit on miss, roll back atomically on rejection.
	if err := s.admitMu.lock(ctx); err != nil {
		http.Error(w, "canceled before admission", http.StatusServiceUnavailable)
		return
	}
	key := experiments.PlanDigest(cfg, deadline)
	e, owner := s.cache.acquire(key)
	var owned []schedJob
	if owner {
		owned = []schedJob{{job: job, e: e}}
	}
	if err := s.sched.submit(clientID(r), owned); err != nil {
		s.cache.release(e)
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
	defer s.cache.release(e)

	select {
	case <-e.done:
	case <-ctx.Done():
		http.Error(w, "request timed out before the plan completed", http.StatusGatewayTimeout)
		return
	}

	res := e.res
	rep := runner.NewReport([]runner.Result{res}, false)
	resp := PlanResponse{Result: rep.Results[0], Cache: "hit"}
	if owner {
		resp.Cache = "miss"
	}
	if res.Res != nil && req.DeadlineSec > 0 {
		if v, ok := res.Res.Values["SPLIT meets deadline"]; ok {
			b := v == 1
			resp.SplitMeetsDeadline = &b
		}
		if v, ok := res.Res.Values["NO-SPLIT meets deadline"]; ok {
			b := v == 1
			resp.NoSplitMeetsDeadline = &b
		}
	}
	status := http.StatusOK
	if res.Err != "" {
		// A config error (nodes out of even the analytic range, bad
		// failure position) is the client's, not the server's.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

// planJobName names a plan job for reports and logs, mirroring the sweep
// jobName conventions.
func planJobName(c experiments.Config, deadlineSec float64) string {
	name := "CapacityPlan/" + c.Scale.String()
	if c.Seed != 0 {
		name += fmt.Sprintf("/seed=%d", c.Seed)
	}
	if c.FailureAt > 0 {
		name += fmt.Sprintf("/fail@%d", c.FailureAt)
	}
	if c.Nodes > 0 {
		name += fmt.Sprintf("/nodes=%d", c.Nodes)
	}
	if c.Tenants > 0 {
		name += fmt.Sprintf("/tenants=%d", c.Tenants)
	}
	if deadlineSec > 0 {
		name += fmt.Sprintf("/deadline=%g", deadlineSec)
	}
	return name
}
