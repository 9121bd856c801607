package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/features"
	"mapc/internal/phasesum"
)

// syntheticModel trains a predictor of the k-app feature width on random
// rows: the cancellation tests need a model that accepts k-app bags, not a
// meaningful one, and generating a real k = 8 corpus would take minutes.
func syntheticModel(t *testing.T, k int) *core.Predictor {
	t.Helper()
	names, err := features.Names(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(k)))
	c := &dataset.Corpus{FeatureNames: names, CPUTimeDivisor: 1}
	for i := 0; i < 16; i++ {
		x := make([]float64, len(names))
		for j := range x {
			x[j] = rng.Float64()
		}
		c.Points = append(c.Points, dataset.Point{
			Members: []dataset.Member{{Benchmark: "sift", Batch: 20}},
			X:       x, Y: 1 + rng.Float64(),
		})
	}
	mod, err := core.Train(c, core.SchemeFull, core.DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// coldServer is a k-app server over a fresh generator: every member of
// every bag is unmeasured, so a request pays for real, cold exact
// simulation.
func coldServer(t *testing.T, k int, mut func(*Config)) (*Server, *dataset.Generator) {
	t.Helper()
	gen, err := dataset.NewGenerator(dataset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: syntheticModel(t, k), Generator: gen, Workers: 1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, gen
}

// coldBody is a request for a k-app bag of distinct benchmarks.
func coldBody(k int) string {
	names := []string{"fast", "hog", "knn", "objrec", "orb", "sift", "surf", "svm"}
	parts := make([]string, k)
	for i := range parts {
		parts[i] = fmt.Sprintf(`{"benchmark":%q,"batch":20}`, names[i])
	}
	return `{"bag":[` + strings.Join(parts, ",") + `]}`
}

// assertNothingRunsOn checks that no simulation outlives the request:
// the generator's simulation memo does not move over the next 300 ms, and
// the feature cache published nothing.
func assertNothingRunsOn(t *testing.T, s *Server, gen *dataset.Generator) {
	t.Helper()
	before := gen.SimCacheStats()
	time.Sleep(300 * time.Millisecond)
	if after := gen.SimCacheStats(); after != before {
		t.Errorf("simulation kept running after the request ended: memo %+v -> %+v", before, after)
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("feature cache holds %d entries for an abandoned bag", n)
	}
}

// TestDeadlineStopsColdBag: a real cold k = 4 exact bag under a 20 ms
// deadline answers 504, its admission slot is free the moment the handler
// returns, and nothing simulates on afterwards.
func TestDeadlineStopsColdBag(t *testing.T) {
	s, gen := coldServer(t, 4, nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(coldBody(4)))
	req.Header.Set(HeaderDeadline, "20")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("cold bag under a 20ms deadline answered %d, want 504: %s", rr.Code, rr.Body)
	}
	if n := s.Metrics().InFlight(); n != 0 {
		t.Fatalf("%d admission slots still held after the 504", n)
	}
	assertNothingRunsOn(t, s, gen)
}

// TestShutdownPastGraceCancels: Shutdown with a 50 ms grace while a cold
// k = 8 bag is in flight cancels it and returns once its handler has
// answered 503; nothing simulates on afterwards.
func TestShutdownPastGraceCancels(t *testing.T) {
	s, gen := coldServer(t, 8, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	type reply struct {
		code  int
		retry string
		err   error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/predict", "application/json", strings.NewReader(coldBody(8)))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		replied <- reply{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}()
	waitFor(t, func() bool { return s.Metrics().InFlight() == 1 && gen.SimCacheStats().Misses > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past its grace returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("Shutdown took %v with a 50ms grace", elapsed)
	}
	// Shutdown has returned, so the handler has: its reply is in flight.
	if n := s.Metrics().InFlight(); n != 0 {
		t.Fatalf("%d admission slots still held after Shutdown returned", n)
	}
	r := <-replied
	if r.err != nil || r.code != http.StatusServiceUnavailable || r.retry == "" {
		t.Fatalf("in-flight request got code=%d Retry-After=%q err=%v, want 503 with Retry-After", r.code, r.retry, r.err)
	}
	assertNothingRunsOn(t, s, gen)
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestCancelledLeaderDoesNotFailWaiter: the singleflight leader for a bag
// is cancelled by its own deadline mid-simulation; a waiter that joined it
// with a live context still gets features bit-identical to BagFeatures.
func TestCancelledLeaderDoesNotFailWaiter(t *testing.T) {
	bag := []dataset.Member{{Benchmark: "fast", Batch: 20}, {Benchmark: "hog", Batch: 20}, {Benchmark: "knn", Batch: 20}}
	ref, err := dataset.NewGenerator(dataset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantX, wantFair, err := ref.BagFeatures(bag)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := dataset.NewGenerator(dataset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := newFeatureCache(gen, 0)
	// The leader's compute holds until the waiter has joined, then
	// simulates for real under its 50 ms deadline.
	joined := make(chan struct{})
	var first sync.Once
	c.compute = func(ctx context.Context, bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error) {
		first.Do(func() { <-joined })
		return gen.BagFeaturesFidelity(ctx, bag, fid)
	}

	leaderErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, _, _, err := c.get(ctx, bag, phasesum.Exact)
		leaderErr <- err
	}()
	waitFor(t, func() bool { return c.Len() == 1 })

	type result struct {
		x    []float64
		fair float64
		hit  bool
		err  error
	}
	waiter := make(chan result, 1)
	go func() {
		x, fair, hit, err := c.get(context.Background(), bag, phasesum.Exact)
		waiter <- result{x, fair, hit, err}
	}()
	waitFor(t, func() bool { return c.Stats().Hits == 1 }) // the waiter is attached
	close(joined)

	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader returned %v, want its own context.DeadlineExceeded", err)
	}
	r := <-waiter
	if r.err != nil {
		t.Fatalf("waiter failed with the leader's cancellation: %v", r.err)
	}
	if !reflect.DeepEqual(r.x, wantX) || r.fair != wantFair {
		t.Fatal("waiter's features differ from BagFeatures on a fresh generator")
	}
	if r.hit {
		t.Error("the waiter computed its answer but reported a cache hit")
	}
}

// TestPeerFillHonoursDeadline: with a peer that never answers, a miss under
// a 50 ms X-Mapc-Deadline answers 504 and frees its slot well within one
// probe timeout (2 s).
func TestPeerFillHonoursDeadline(t *testing.T) {
	blackhole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer blackhole.Close()

	s := newTestServer(t, nil)
	s.SetPeerFill(nil, []string{blackhole.URL}, 0)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"bag":[{"benchmark":"sift","batch":77},{"benchmark":"surf","batch":77}]}`))
	req.Header.Set(HeaderDeadline, "50")
	rr := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rr, req)
	elapsed := time.Since(start)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("answered %d, want 504: %s", rr.Code, rr.Body)
	}
	if n := s.Metrics().InFlight(); n != 0 {
		t.Fatalf("%d admission slots still held after the 504", n)
	}
	if elapsed > time.Second {
		t.Errorf("504 took %v; the peer probe ignored the 50ms request deadline", elapsed)
	}
}

// TestShutdownPastGraceClosesStalledUpload: a client that sends headers
// and never its body holds a handler no context can stop; Shutdown past
// its grace still returns, closing that connection after cancelWait.
func TestShutdownPastGraceClosesStalledUpload(t *testing.T) {
	s := newTestServer(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/predict HTTP/1.1\r\nHost: mapc\r\nContent-Length: 100\r\n\r\n{")
	waitFor(t, func() bool { return s.Metrics().InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > cancelWait+2*time.Second {
		t.Fatalf("Shutdown took %v; a stalled upload held it past cancelWait (%v)", elapsed, cancelWait)
	}
	waitFor(t, func() bool { return s.Metrics().InFlight() == 0 })
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
