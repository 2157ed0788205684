package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// planValid is the fuzz oracle's own reading of the /v1/plan input rules:
// a JSON PlanRequest no larger than the body limit, a known scale, a
// cluster size of 5 to 2^20 nodes (0 = the setup's own), at most 64
// tenants, a non-negative deadline and a failure position inside the
// chain (4 jobs at quick scale, 7 at paper; <= 0 = the default).
func planValid(body []byte) bool {
	var req PlanRequest
	if len(body) > maxBodyBytes || json.Unmarshal(body, &req) != nil {
		return false
	}
	jobs := 4
	switch strings.ToLower(req.Scale) {
	case "", "quick", "smoke":
	case "paper":
		jobs = 7
	default:
		return false
	}
	return (req.Nodes == 0 || req.Nodes >= 5 && req.Nodes <= 1<<20) &&
		req.Tenants >= 0 && req.Tenants <= 64 &&
		req.DeadlineSec >= 0 &&
		req.FailureAt <= jobs
}

// FuzzPlanRequest drives /v1/plan with raw request bodies, each against a
// fresh server. Oracle: the handler never panics and never answers 5xx; an
// invalid body gets a 4xx; a valid body gets 200, computed on the first
// request ("miss") and served from the cache on the repeat ("hit"). The
// one permitted 5xx is the timeout a client asks for with a timeout_sec
// under one second. The seed corpus, replayed by every go test run, lives in
// testdata/fuzz/FuzzPlanRequest.
func FuzzPlanRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		// Read only for timeout_sec: an undecodable body leaves it zero, and
		// planValid judges decodability itself.
		var req PlanRequest
		_ = json.Unmarshal(body, &req)
		clientTimeout := req.TimeoutSec > 0 && req.TimeoutSec < 1
		valid := planValid(body)
		for i, wantCache := range []string{"miss", "hit"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
			code := rec.Code
			switch {
			case clientTimeout && (code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout):
				return
			case code >= 500:
				t.Fatalf("request %d: %d for %q: %s", i, code, body, rec.Body)
			case !valid:
				if code < 400 {
					t.Fatalf("request %d: invalid body %q answered %d: %s", i, body, code, rec.Body)
				}
				continue
			case code != http.StatusOK:
				t.Fatalf("request %d: valid body %q answered %d: %s", i, body, code, rec.Body)
			}
			var pr PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("request %d: undecodable answer %q: %v", i, rec.Body, err)
			}
			if pr.Cache != wantCache || pr.Result.Error != "" {
				t.Fatalf("request %d for %q: cache %q error %q, want cache %q and no error",
					i, body, pr.Cache, pr.Result.Error, wantCache)
			}
		}
	})
}

// TestPlanRejectsOversizedBody pins the body limit: a body past
// maxBodyBytes is refused with 413, not parsed from a truncated prefix
// (here the prefix alone would be a valid request).
func TestPlanRejectsOversizedBody(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	body := append([]byte(`{}`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(append(body, 'x'))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413: %s", rec.Code, rec.Body)
	}
}
