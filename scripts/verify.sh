#!/bin/sh
# verify.sh — the repo's one-command gate:
#   1. tier-1: go build ./... && go test ./...
#   2. static checks: go vet and gofmt -l over the whole module
#   3. race detector over the full suite, plus a focused -race pass on the
#      simulation core (internal/flow, internal/mapreduce — including
#      the graph/session paths — and the graph planner's
#      internal/middleware + internal/core), the pooled runner path
#      (internal/runner, internal/experiments — worker goroutines share
#      the per-config context pool) and the distributed runtime
#      (internal/dmr) with -count=2 so pool/scratch-state reuse across
#      runs stays honest; the cross-validation harness (internal/xval)
#      rides in the same repeated -race tier
#   4. rcmpsim smoke: the schedule-engine experiments, the scaling
#      tier (weak-scaling, -nodes override), the analytic twin
#      (-engine analytic at 131072 nodes, -seed-set dispersion) and the
#      graph-driven tier (dag-recovery, multi-tenant with
#      -tenants/-speculation) end to end through the CLI and the
#      parallel runner
#   5. rcmpxval smoke: the sim<->dmr cross-validation harness end to end
#      through the CLI — one failure offset plain, one under the chaos
#      transport — failing on any recovery-decision divergence; then
#      rcmpserve smoke: the sweep server end to end on an ephemeral port —
#      a sweep over HTTP must be byte-identical to the rcmpsim CLI report,
#      the cached repeat byte-identical again, a /v1/plan capacity answer
#      must miss then hit the result cache, and SIGTERM must drain
#      cleanly — plus a small serveload pass (concurrent clients, cache
#      hit-rate and zero-dropped-jobs checks in-process)
#   6. golden-digest + lazy-equivalence + fast-forward-equivalence
#      suites, explicitly, with the ladder event queue and rate-class
#      flow core on (their defaults), plus the fast-forward engine's
#      chain-level property tests forced through -race; then the
#      analytic-vs-DES tolerance suite over the whole registry
#   7. fuzz: each native fuzz target of an untrusted input (/v1/plan
#      bodies, -schedule strings) for 10 s beyond its replayed seed corpus
#   8. benchmark smoke pass: every benchmark once at the smoke tier
#   9. perf-regression gate: re-measure the perf-trajectory benchmarks and
#      diff against the committed BENCH_flow.json (scripts/benchdiff.sh;
#      >10% ns/op or allocs/op regressions fail)
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== test =="
go test ./...

echo "== race (full suite) =="
go test -race ./...

echo "== race (simulation core + pooled runner + distributed runtime + sweep server + cross-validation, repeated) =="
go test -race -count=2 ./internal/flow ./internal/mapreduce ./internal/middleware ./internal/core ./internal/runner ./internal/experiments ./internal/dmr ./internal/wire ./internal/server ./internal/xval

echo "== race (fast-forward mode, repeated) =="
go test -race -count=2 -run 'TestFF|TestGoldenResultsEquivalentUnderFastForward' ./internal/mapreduce ./internal/experiments

echo "== rcmpsim smoke (failure-schedule engine) =="
go run ./cmd/rcmpsim -fig double-failure -quick -parallel 2 > /dev/null
go run ./cmd/rcmpsim -fig trace-replay -quick -parallel 2 -json > /dev/null
go run ./cmd/rcmpsim -fig 12 -quick -schedule '2@15,3@20' > /dev/null

echo "== rcmpsim smoke (scaling tier: weak-scaling + -nodes override) =="
go run ./cmd/rcmpsim -fig weak-scaling -quick > /dev/null
go run ./cmd/rcmpsim -fig 8b -quick -nodes 16 > /dev/null

echo "== rcmpsim smoke (analytic twin: 131072 nodes beyond the DES ceiling, seed-set dispersion) =="
go run ./cmd/rcmpsim -fig weak-scaling -quick -engine analytic -nodes 131072 > /dev/null
go run ./cmd/rcmpsim -fig 8b -quick -engine analytic -seed-set 3 -json > /dev/null

echo "== rcmpsim smoke (graph-driven tier: DAG recovery + multi-tenant sessions) =="
go run ./cmd/rcmpsim -fig dag-recovery -quick > /dev/null
go run ./cmd/rcmpsim -fig multi-tenant -quick -parallel 2 -json > /dev/null
go run ./cmd/rcmpsim -fig multi-tenant -quick -tenants 3 > /dev/null
go run ./cmd/rcmpsim -fig dag-recovery -quick -speculation > /dev/null

echo "== rcmpsim smoke (fast-forward forced on at every size) =="
go run ./cmd/rcmpsim -fig weak-scaling -quick -ff > /dev/null
go run ./cmd/rcmpsim -fig trace-replay -quick -ff -parallel 2 -json > /dev/null

echo "== rcmpxval smoke (sim vs dmr cross-validation: one offset, plus one chaos case) =="
go run ./cmd/rcmpxval -offsets 0.25 -task-delay 60ms > /dev/null
go run ./cmd/rcmpxval -offsets 0.25 -task-delay 60ms -chaos -chaos-seed 3 > /dev/null

echo "== rcmpserve smoke (sweep server end to end: HTTP vs CLI byte-identity, cache, SIGTERM drain) =="
tmp="${TMPDIR:-/tmp}/rcmp-verify-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rcmpserve" ./cmd/rcmpserve
"$tmp/rcmpserve" -addr 127.0.0.1:0 -workers 2 > "$tmp/serve.out" &
serve_pid=$!
base=""
i=0
while [ $i -lt 100 ]; do
    base="$(sed -n 's|^rcmpserve: listening on ||p' "$tmp/serve.out")"
    [ -n "$base" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$base" ]; then
    echo "rcmpserve never reported its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
curl -sf "$base/healthz" > /dev/null
sweep='{"specs":["cost"],"scale":"quick","seeds":[1],"stream":false}'
curl -sf -X POST -d "$sweep" "$base/v1/sweep" > "$tmp/http_report.json"
go run ./cmd/rcmpsim -fig cost -quick -seed 1 -json > "$tmp/cli_report.json"
cmp "$tmp/http_report.json" "$tmp/cli_report.json"
curl -sf -X POST -d "$sweep" "$base/v1/sweep" | cmp - "$tmp/http_report.json"
plan='{"nodes":131072,"tenants":4,"deadline_sec":700}'
curl -sf -X POST -d "$plan" "$base/v1/plan" > "$tmp/plan.json"
grep -q '"cache": *"miss"' "$tmp/plan.json"
curl -sf -X POST -d "$plan" "$base/v1/plan" | grep -q '"cache": *"hit"'
kill -TERM "$serve_pid"
wait "$serve_pid"

echo "== serveload smoke (concurrent clients, cache hit rate, zero dropped jobs) =="
go run ./cmd/serveload -requests 200 -grids 16 -out "$tmp/BENCH_serve_smoke.json" > /dev/null

echo "== golden digests + lazy + fast-forward equivalence (ladder queue + rate-class flow core on) =="
go test -count=1 -run 'TestGoldenDigests|TestGoldenResultsEquivalentUnderLazyBanking|TestGoldenResultsEquivalentUnderFastForward' ./internal/experiments

echo "== analytic-vs-DES tolerance suite (registry-wide, 2 seeds per spec) =="
go test -count=1 -run 'TestAnalyticEngineToleranceRegistryWide' ./internal/experiments

echo "== fuzz (/v1/plan bodies, -schedule strings; 10 s each) =="
go test -run '^$' -fuzz '^FuzzPlanRequest$' -fuzztime 10s -parallel 2 ./internal/server
go test -run '^$' -fuzz '^FuzzParseSchedule$' -fuzztime 10s -parallel 2 ./internal/failure

echo "== bench-smoke =="
RCMP_BENCH_SCALE=smoke go test -run xxx -bench . -benchtime 1x ./...

echo "== benchdiff (perf-regression gate vs BENCH_flow.json) =="
./scripts/benchdiff.sh

echo "verify: OK"
