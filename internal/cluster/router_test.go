package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/serve"
)

var (
	fixOnce sync.Once
	fixGen  *dataset.Generator
	fixMod  *core.Predictor
	fixErr  error
)

// fixture trains one tiny full-scheme model (sift+surf, 2 batch sizes) per
// package. Every replica in these tests shares it, which mirrors
// production — replicas are interchangeable copies of one trained model —
// and is what makes bit-identical routing testable.
func fixture(t *testing.T) (*dataset.Generator, *core.Predictor) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Benchmarks = []string{"sift", "surf"}
		cfg.BatchSizes = []int{20, 40}
		cfg.MixedPairs = 0
		gen, err := dataset.NewGenerator(cfg)
		if err != nil {
			fixErr = err
			return
		}
		corpus, err := gen.Generate()
		if err != nil {
			fixErr = err
			return
		}
		fixMod, fixErr = core.Train(corpus, core.SchemeFull, core.DefaultTreeParams())
		fixGen = gen
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixGen, fixMod
}

// newReplica boots one real serve.Server on httptest. Each replica gets
// its own generator-backed cache but shares the trained model.
func newReplica(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	gen, mod := fixture(t)
	s, err := serve.New(serve.Config{Model: mod, Generator: gen, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newTier boots n replicas and a router over them, probes disabled (tests
// step membership explicitly via Pool().Probe).
func newTier(t *testing.T, n int) (*Router, []*serve.Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*serve.Server, n)
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i], https[i] = newReplica(t)
		urls[i] = https[i].URL
	}
	pool, err := NewPool(PoolConfig{Replicas: urls, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return rt, servers, https
}

func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// mixBody builds a batched request over every pair the fixture can serve,
// in both member orders, exercising multi-replica fan-out in one request.
func mixBody() string {
	var bags []string
	for _, a := range []string{"sift", "surf"} {
		for _, b := range []string{"sift", "surf"} {
			for _, ab := range []int{20, 40} {
				for _, bb := range []int{20, 40} {
					bags = append(bags, fmt.Sprintf(
						`{"members":[{"benchmark":%q,"batch":%d},{"benchmark":%q,"batch":%d}]}`, a, ab, b, bb))
				}
			}
		}
	}
	return `{"bags":[` + strings.Join(bags, ",") + `]}`
}

// normCached erases the cached flag, the only field allowed to differ
// between a cold and a warm answer to the same bag.
func normCached(s string) string {
	s = strings.ReplaceAll(s, `"cached": true`, `"cached": ?`)
	return strings.ReplaceAll(s, `"cached": false`, `"cached": ?`)
}

// TestRouterParityWithSingleReplica is the tier's core contract: the
// router's answer is byte-identical (modulo the cached flag) to asking a
// single-process server directly — across single bags, batched mixes, and
// permuted member orders.
func TestRouterParityWithSingleReplica(t *testing.T) {
	rt, _, _ := newTier(t, 3)
	rh := rt.Handler()
	_, solo := newReplica(t)

	bodies := []string{
		`{"bags":[{"members":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":40}]}]}`,
		`{"bag":[{"benchmark":"surf","batch":40},{"benchmark":"sift","batch":20}]}`, // permuted members
		mixBody(),
	}
	for i, body := range bodies {
		routed := post(t, rh, body)
		if routed.Code != http.StatusOK {
			t.Fatalf("body %d: router answered %d: %s", i, routed.Code, routed.Body)
		}
		resp, err := http.Post(solo.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: solo replica answered %d: %s", i, resp.StatusCode, direct)
		}
		if normCached(routed.Body.String()) != normCached(string(direct)) {
			t.Errorf("body %d: routed and direct answers differ:\n--- routed ---\n%s\n--- direct ---\n%s",
				i, routed.Body, direct)
		}
	}
}

// TestRouterShardsAcrossReplicas asserts the mix actually spreads over
// more than one replica (the canonical keys hash apart), so the parity
// test above really exercised reassembly.
func TestRouterShardsAcrossReplicas(t *testing.T) {
	rt, servers, _ := newTier(t, 3)
	rh := rt.Handler()
	if rr := post(t, rh, mixBody()); rr.Code != http.StatusOK {
		t.Fatalf("mix answered %d: %s", rr.Code, rr.Body)
	}
	touched := 0
	for _, s := range servers {
		if s.Metrics().InFlight() != 0 {
			t.Error("replica left in-flight work")
		}
		if s.CacheLen() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("only %d replica(s) served bags; sharding is not spreading", touched)
	}
}

// TestRouterFailoverAndReadmission kills a replica mid-traffic: requests
// keep succeeding bit-identically via ring fallbacks, the dead member is
// ejected passively, and a re-admitted member gets traffic back.
func TestRouterFailoverAndReadmission(t *testing.T) {
	rt, _, https := newTier(t, 3)
	rh := rt.Handler()
	body := mixBody()

	want := post(t, rh, body)
	if want.Code != http.StatusOK {
		t.Fatalf("warmup answered %d: %s", want.Code, want.Body)
	}

	// Kill the replica that owns the first bag's key, so the next request
	// definitely hits the dead member, fails at the transport, retries the
	// fallback, and the pool ejects it passively (FailAfter=1).
	owner := rt.pool.ring.Lookup(serve.CanonicalKey([]serve.Member{
		{Benchmark: "sift", Batch: 20}, {Benchmark: "sift", Batch: 20}}))
	victim := -1
	for i, ts := range https {
		if ts.URL == owner {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner %s not among replicas", owner)
	}
	https[victim].Close()
	got := post(t, rh, body)
	if got.Code != http.StatusOK {
		t.Fatalf("request during outage answered %d: %s", got.Code, got.Body)
	}
	if normCached(got.Body.String()) != normCached(want.Body.String()) {
		t.Error("failover answer differs from the pre-outage answer")
	}
	if rt.Pool().HealthyCount() != 2 {
		t.Errorf("dead replica not passively ejected: %+v", rt.Pool().Status())
	}

	// With the member ejected, further requests route around it without
	// paying the connection error again.
	retriesBefore := rt.metrics.retries.Load()
	got = post(t, rh, body)
	if got.Code != http.StatusOK {
		t.Fatalf("request after ejection answered %d: %s", got.Code, got.Body)
	}
	if rt.metrics.retries.Load() != retriesBefore {
		t.Errorf("ejected replica still receiving first-attempt traffic (%d new retries)",
			rt.metrics.retries.Load()-retriesBefore)
	}

	// Probing re-admits nothing while it is down…
	rt.Pool().Probe(context.Background())
	if rt.Pool().HealthyCount() != 2 {
		t.Fatal("dead replica re-admitted")
	}
}

// TestRouterPropagatesReplicaErrors pins error passthrough: validation
// failures and load shedding surface to the client with the replica's
// status and body, not a router-invented wrapper.
func TestRouterPropagatesReplicaErrors(t *testing.T) {
	rt, _, _ := newTier(t, 2)
	rh := rt.Handler()

	// Unknown benchmark → the owning replica's 400 comes through.
	rr := post(t, rh, `{"bag":[{"benchmark":"nosuch","batch":20},{"benchmark":"surf","batch":20}]}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("invalid bag answered %d: %s", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), "nosuch") {
		t.Errorf("replica's error body not propagated: %s", rr.Body)
	}

	// A batch past vision.MaxBatch (here 2^63-1, which used to wrap the
	// transfer size negative and answer 200) is the replica's 400.
	rr = post(t, rh, `{"bag":[{"benchmark":"sift","batch":9223372036854775807},{"benchmark":"surf","batch":20}]}`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "exceeds the maximum") {
		t.Errorf("overflowing batch answered %d: %s", rr.Code, rr.Body)
	}

	// Router-level validation matches the replicas' contract, including
	// the retired pair form at top level and inside bags.
	for _, body := range []string{
		`{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`,
		`{"bags":[{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}]}`,
	} {
		rr = post(t, rh, body)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `{\"bag\":[…]} and/or {\"bags\":[{\"members\":[…]}]}`) {
			t.Errorf("pair form %s answered %d: %s", body, rr.Code, rr.Body)
		}
	}
	rr = post(t, rh, `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]} trailing`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "trailing data") {
		t.Errorf("trailing data answered %d: %s", rr.Code, rr.Body)
	}
	rr = post(t, rh, `{"nope":1}`)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("unknown field answered %d", rr.Code)
	}
}

// TestRouterAllReplicasDown: every forward fails → 502 with a descriptive
// body, and /healthz reports the tier degraded.
func TestRouterAllReplicasDown(t *testing.T) {
	rt, _, https := newTier(t, 2)
	rh := rt.Handler()
	for _, ts := range https {
		ts.Close()
	}
	rr := post(t, rh, `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}`)
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("total outage answered %d: %s", rr.Code, rr.Body)
	}

	rt.Pool().Probe(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrr := httptest.NewRecorder()
	rh.ServeHTTP(hrr, req)
	if hrr.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded tier healthz answered %d", hrr.Code)
	}
	var health RouterHealth
	if err := json.Unmarshal(hrr.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Healthy != 0 {
		t.Errorf("health %+v, want degraded/0", health)
	}
}

// TestRouterWarmStartedReplicaParity is the join-path parity leg: a fresh
// replica warm-started from a serving peer answers the same bytes through
// the router as the original tier (the snapshot carries bit-exact
// vectors).
func TestRouterWarmStartedReplicaParity(t *testing.T) {
	seedServer, seedHTTP := newReplica(t)
	body := mixBody()
	resp, err := http.Post(seedHTTP.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_ = seedServer

	// Boot a second replica warm-started from the first, and a router over
	// both.
	warm, warmHTTP := newReplica(t)
	if _, err := warm.WarmFromPeer(context.Background(), nil, seedHTTP.URL); err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolConfig{Replicas: []string{seedHTTP.URL, warmHTTP.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	routed := post(t, rt.Handler(), body)
	if routed.Code != http.StatusOK {
		t.Fatalf("routed answered %d: %s", routed.Code, routed.Body)
	}
	if normCached(routed.Body.String()) != normCached(string(direct)) {
		t.Errorf("warm-started tier differs from the seed replica:\n--- tier ---\n%s\n--- seed ---\n%s",
			routed.Body, direct)
	}
}

// TestRouterMetricsExposition smoke-checks the text exposition names.
func TestRouterMetricsExposition(t *testing.T) {
	rt, _, _ := newTier(t, 2)
	rh := rt.Handler()
	post(t, rh, `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}`)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rr := httptest.NewRecorder()
	rh.ServeHTTP(rr, req)
	body := rr.Body.String()
	for _, want := range []string{
		`mapc_router_requests_total{code="200"} 1`,
		"mapc_router_bags_total 1",
		"mapc_router_forwarded_bags_total",
		"mapc_router_replicas_healthy 2",
		"mapc_router_ejections_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouterReusesForwardConnections pins the forward pool's size: two
// waves of 32 concurrent requests to one replica open at most 32
// connections, because the router keeps a wave's connections idle for the
// next one. The replica holds each wave's requests until all 32 have
// arrived, so each wave really needs 32 connections at once. With Go's
// default idle pool of 2, the second wave reopened about 30.
func TestRouterReusesForwardConnections(t *testing.T) {
	const wave = 32
	backend, _ := newReplica(t)
	var arrived, opened atomic.Int64
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/predict" {
			n := arrived.Add(1) - 1
			if n%wave == wave-1 {
				close(release[n/wave])
			}
			select {
			case <-release[n/wave]:
			case <-time.After(10 * time.Second):
			}
		}
		backend.Handler().ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	pool, err := NewPool(PoolConfig{Replicas: []string{ts.URL}, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Pool: pool, Timeout: 30 * time.Second, AttemptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}`
	for w := 0; w < len(release); w++ {
		var wg sync.WaitGroup
		codes := make([]int, wave)
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				codes[i] = post(t, rt.Handler(), body).Code
			}(i)
		}
		wg.Wait()
		for i, c := range codes {
			if c != http.StatusOK {
				t.Fatalf("wave %d request %d answered %d", w, i, c)
			}
		}
	}
	if n := opened.Load(); n > wave {
		t.Fatalf("two waves of %d concurrent requests opened %d connections, want at most %d", wave, n, wave)
	}
}
