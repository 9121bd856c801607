package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mapc/internal/faultinject"
	"mapc/internal/serve"
)

func pairBody(a string, ab int, b string, bb int) string {
	return fmt.Sprintf(`{"bag":[{"benchmark":%q,"batch":%d},{"benchmark":%q,"batch":%d}]}`, a, ab, b, bb)
}

// fixturePairs enumerates every pair the fixture model can serve, as
// member slices (for candidate discovery) and request bodies.
func fixturePairs() (bags [][]serve.Member, bodies []string) {
	for _, a := range []string{"sift", "surf"} {
		for _, b := range []string{"sift", "surf"} {
			for _, ab := range []int{20, 40} {
				for _, bb := range []int{20, 40} {
					bags = append(bags, []serve.Member{
						{Benchmark: a, Batch: ab}, {Benchmark: b, Batch: bb}})
					bodies = append(bodies, pairBody(a, ab, b, bb))
				}
			}
		}
	}
	return bags, bodies
}

// bagRoutedFirstTo returns a request body whose canonical key routes to
// wantURL as the first candidate, so tests can deterministically aim the
// first forward at a chosen replica.
func bagRoutedFirstTo(t *testing.T, pool *Pool, wantURL string) string {
	t.Helper()
	bags, bodies := fixturePairs()
	for i, ms := range bags {
		if cands := pool.Route(serve.CanonicalKey(ms)); len(cands) > 0 && cands[0] == wantURL {
			return bodies[i]
		}
	}
	t.Fatalf("no fixture bag routes first to %s", wantURL)
	return ""
}

// TestRouterPerAttemptTimeoutFailover is the satellite-1 regression test:
// a replica that accepts connections and then never answers used to stall
// a request for the full end-to-end Timeout (60s by default) because no
// per-attempt bound existed. With AttemptTimeout the router abandons the
// black-holed forward quickly and fails over to the live candidate.
func TestRouterPerAttemptTimeoutFailover(t *testing.T) {
	_, live := newReplica(t)
	dark := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's client-disconnect watcher runs,
		// then sit dark until the router abandons the attempt (the timer is
		// only a leak guard for test teardown).
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	}))
	t.Cleanup(dark.Close)

	pool, err := NewPool(PoolConfig{Replicas: []string{live.URL, dark.URL}, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Pool:           pool,
		Timeout:        30 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := bagRoutedFirstTo(t, pool, dark.URL)

	start := time.Now()
	rr := post(t, rt.Handler(), body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusOK {
		t.Fatalf("request aimed at the dark replica answered %d: %s", rr.Code, rr.Body)
	}
	// One 300ms attempt + failover + a real simulation; nowhere near the
	// 30s end-to-end budget (and pre-fix this took the full Timeout).
	if elapsed > 10*time.Second {
		t.Fatalf("failover took %v; the per-attempt timeout is not bounding the dark forward", elapsed)
	}
	if elapsed < 300*time.Millisecond {
		t.Fatalf("request finished in %v without waiting out the dark attempt; the test routed wrong", elapsed)
	}
	// The dark replica was passively reported: FailAfter=1 ejects it.
	if got := pool.BreakerState(dark.URL); got != "open" {
		t.Errorf("dark replica breaker %q after the timed-out forward, want open", got)
	}
}

// chaosRouter builds a router over the given replica URLs whose forward
// client runs through a faultinject.Transport with the given plan.
func chaosRouter(t *testing.T, urls []string, plan faultinject.Plan, mut func(*RouterConfig)) (*Router, *faultinject.Transport) {
	t.Helper()
	pool, err := NewPool(PoolConfig{Replicas: urls, FailAfter: 3, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := faultinject.NewTransport(nil, plan)
	cfg := RouterConfig{
		Pool:           pool,
		Client:         &http.Client{Transport: tr},
		Timeout:        30 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, tr
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	return strings.TrimPrefix(rawURL, "http://")
}

// TestRouterChaosBlackholedReplica black-holes every request to one of two
// replicas at the transport and drives the full fixture mix through the
// router: every request must still answer 200 (failover), the sick
// replica's breaker must open, and the retry metric must move.
func TestRouterChaosBlackholedReplica(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	plan := faultinject.Plan{Faults: []faultinject.Fault{{
		Site:  faultinject.NetSite(hostOf(t, tsB.URL)),
		Index: faultinject.AnyIndex,
		Kind:  faultinject.KindBlackhole,
	}}}
	rt, tr := chaosRouter(t, []string{tsA.URL, tsB.URL}, plan, nil)
	h := rt.Handler()

	_, bodies := fixturePairs()
	for i, body := range bodies {
		rr := post(t, h, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d answered %d with one replica black-holed: %s", i, rr.Code, rr.Body)
		}
	}
	if got := rt.pool.BreakerState(tsB.URL); got != "open" {
		t.Errorf("black-holed replica breaker %q, want open", got)
	}
	if rt.metrics.retries.Load() == 0 {
		t.Error("no retries recorded despite a black-holed replica")
	}
	if tr.Requests(faultinject.NetSite(hostOf(t, tsB.URL))) == 0 {
		t.Error("chaos transport never saw traffic to the black-holed site")
	}
	// Once the breaker opened, pick() stops aiming first attempts at the
	// dark replica: a warm re-run completes without growing the retry
	// counter by more than the occasional half-open trial.
	before := rt.metrics.retries.Load()
	for _, body := range bodies {
		if rr := post(t, h, body); rr.Code != http.StatusOK {
			t.Fatalf("warm request answered %d: %s", rr.Code, rr.Body)
		}
	}
	if after := rt.metrics.retries.Load(); after-before > 2 {
		t.Errorf("retries grew %d→%d on the warm pass; the breaker is not steering traffic away", before, after)
	}
}

// TestRouterSeededChaosBitIdentity is the exactness gate under faults: a
// seeded random network plan (delays, resets, 5xx bursts, truncated
// bodies) injected into the forward path must never change an answer —
// every request still completes 200 and the bodies are bit-identical
// (modulo the cached flag) to a fault-free tier over the same replicas.
func TestRouterSeededChaosBitIdentity(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	urls := []string{tsA.URL, tsB.URL}

	// Fault-free baseline.
	rtClean, _ := chaosRouter(t, urls, faultinject.Plan{}, nil)
	_, bodies := fixturePairs()
	baseline := make([]string, len(bodies))
	for i, body := range bodies {
		rr := post(t, rtClean.Handler(), body)
		if rr.Code != http.StatusOK {
			t.Fatalf("baseline request %d answered %d: %s", i, rr.Code, rr.Body)
		}
		baseline[i] = normCached(rr.Body.String())
		if strings.Contains(rr.Body.String(), `"degraded": true`) {
			t.Fatalf("fault-free baseline answered degraded: %s", rr.Body)
		}
	}

	// Seeded chaos on both sites.
	var plan faultinject.Plan
	for _, u := range urls {
		p := faultinject.RandomNetworkPlan(42, faultinject.NetSite(hostOf(t, u)), 64)
		plan.Faults = append(plan.Faults, p.Faults...)
	}
	rtChaos, _ := chaosRouter(t, urls, plan, func(c *RouterConfig) {
		c.RetryBudget = 16
	})
	for i, body := range bodies {
		rr := post(t, rtChaos.Handler(), body)
		if rr.Code != http.StatusOK {
			t.Fatalf("chaos request %d answered %d: %s", i, rr.Code, rr.Body)
		}
		if got := normCached(rr.Body.String()); got != baseline[i] {
			t.Errorf("chaos request %d diverged from the fault-free answer:\nclean: %s\nchaos: %s", i, baseline[i], got)
		}
	}
}

// TestRouterRetryBudgetExhausted pins the give-up path: with every forward
// answering an injected 500 and a one-retry budget, the router fails 502
// naming the budget instead of hammering the tier, and the metric moves.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	urls := []string{tsA.URL, tsB.URL}
	var plan faultinject.Plan
	for _, u := range urls {
		plan.Faults = append(plan.Faults, faultinject.Fault{
			Site:  faultinject.NetSite(hostOf(t, u)),
			Index: faultinject.AnyIndex,
			Kind:  faultinject.KindHTTPError,
			Code:  500,
		})
	}
	rt, _ := chaosRouter(t, urls, plan, func(c *RouterConfig) {
		c.RetryBudget = 1
	})
	rr := post(t, rt.Handler(), pairBody("sift", 20, "surf", 20))
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("all-500 tier answered %d, want 502: %s", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), "retry budget") {
		t.Errorf("502 body %q does not name the retry budget", rr.Body)
	}
	if rt.metrics.budgetExhausted.Load() != 1 {
		t.Errorf("budgetExhausted = %d, want 1", rt.metrics.budgetExhausted.Load())
	}
}

// TestRouterInjected5xxRetriesOtherReplica pins the retryable-5xx policy:
// a non-503 5xx from one replica is replica-specific and must fail over
// (unlike a 400 or a 503, which propagate — covered by the existing
// router tests).
func TestRouterInjected5xxRetriesOtherReplica(t *testing.T) {
	_, tsA := newReplica(t)
	_, tsB := newReplica(t)
	urls := []string{tsA.URL, tsB.URL}
	// The first request to site A 500s; everything else passes.
	plan := faultinject.Plan{Faults: []faultinject.Fault{{
		Site:  faultinject.NetSite(hostOf(t, tsA.URL)),
		Index: 0,
		Kind:  faultinject.KindHTTPError,
		Code:  500,
		Once:  true,
	}}}
	rt, _ := chaosRouter(t, urls, plan, nil)
	body := bagRoutedFirstTo(t, rt.pool, tsA.URL)
	rr := post(t, rt.Handler(), body)
	if rr.Code != http.StatusOK {
		t.Fatalf("request answered %d after an injected 500, want failover to 200: %s", rr.Code, rr.Body)
	}
	if rt.metrics.retries.Load() == 0 {
		t.Error("no retries recorded; the injected 500 was not treated as retryable")
	}
}

// TestRouterHedgeWinsOnSlowReplica pins tail-latency hedging: when the
// owning replica sits on a request past HedgeDelay, the hedge to the next
// candidate answers first and the request completes far sooner than the
// slow replica would allow, counting a hedge win.
func TestRouterHedgeWinsOnSlowReplica(t *testing.T) {
	_, live := newReplica(t)
	_, slowBackend := newReplica(t)
	const stall = 3 * time.Second
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(stall):
		case <-r.Context().Done():
			return
		}
		slowBackend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	pool, err := NewPool(PoolConfig{Replicas: []string{live.URL, slow.URL}, FailAfter: 1, ReviveAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Pool:       pool,
		Timeout:    30 * time.Second,
		HedgeDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := bagRoutedFirstTo(t, pool, slow.URL)

	start := time.Now()
	rr := post(t, rt.Handler(), body)
	elapsed := time.Since(start)
	if rr.Code != http.StatusOK {
		t.Fatalf("hedged request answered %d: %s", rr.Code, rr.Body)
	}
	if elapsed >= stall {
		t.Fatalf("hedged request took %v (≥ the %v stall); the hedge never raced", elapsed, stall)
	}
	if rt.metrics.hedges.Load() == 0 || rt.metrics.hedgeWins.Load() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both ≥ 1", rt.metrics.hedges.Load(), rt.metrics.hedgeWins.Load())
	}
}
