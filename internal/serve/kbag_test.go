package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mapc/internal/core"
	"mapc/internal/dataset"
)

var (
	k3Once sync.Once
	k3Gen  *dataset.Generator
	k3Mod  *core.Predictor
	k3Err  error
)

// k3Fixture trains a 3-app-bag model (sift+surf+knn, 2 batch sizes) once
// per package, mirroring the pair fixture one k up.
func k3Fixture(t *testing.T) (*dataset.Generator, *core.Predictor) {
	t.Helper()
	k3Once.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Benchmarks = []string{"sift", "surf", "knn"}
		cfg.BatchSizes = []int{20, 40}
		cfg.MixedPairs = 0
		cfg.K = 3
		gen, err := dataset.NewGenerator(cfg)
		if err != nil {
			k3Err = err
			return
		}
		corpus, err := gen.Generate()
		if err != nil {
			k3Err = err
			return
		}
		k3Mod, k3Err = core.Train(corpus, core.SchemeFull, core.DefaultTreeParams())
		k3Gen = gen
	})
	if k3Err != nil {
		t.Fatal(k3Err)
	}
	return k3Gen, k3Mod
}

func newK3Server(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	gen, mod := k3Fixture(t)
	cfg := Config{Model: mod, Generator: gen, Workers: 2}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.trainedK != 3 {
		t.Fatalf("server inferred trainedK=%d from the 3-app model", s.trainedK)
	}
	return s
}

const k3Body = `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":40},{"benchmark":"knn","batch":20}]}`

// TestPredictK3BagParityAndPermutation is the serve-side tentpole check:
// a 3-app bag served over HTTP matches the offline BagFeatures+PredictRaw
// path exactly, repeated and permuted requests hit the same canonical
// cache entry, and the k>2 response shape drops the legacy a/b fields
// while always listing members.
func TestPredictK3BagParityAndPermutation(t *testing.T) {
	gen, mod := k3Fixture(t)
	s := newK3Server(t, nil)
	h := s.Handler()

	bag := []dataset.Member{
		{Benchmark: "sift", Batch: 20},
		{Benchmark: "surf", Batch: 40},
		{Benchmark: "knn", Batch: 20},
	}
	x, fairness, err := gen.BagFeatures(bag)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mod.PredictRaw(x)
	if err != nil {
		t.Fatal(err)
	}

	var cached bool
	for i := 0; i < 2; i++ {
		rr := doJSON(t, h, http.MethodPost, "/v1/predict", k3Body)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: code %d body %s", i, rr.Code, rr.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("%d results", len(resp.Results))
		}
		got := resp.Results[0]
		if got.PredictedSec != want {
			t.Errorf("request %d: served %v, offline path computed %v", i, got.PredictedSec, want)
		}
		if got.Fairness != fairness {
			t.Errorf("request %d: fairness %v, want %v", i, got.Fairness, fairness)
		}
		if len(got.Members) != 3 {
			t.Errorf("request %d: %d members in response", i, len(got.Members))
		}
		if got.A != nil || got.B != nil {
			t.Errorf("request %d: legacy a/b fields populated on a 3-app bag", i)
		}
		cached = got.Cached
	}
	if !cached {
		t.Error("second identical 3-app request was not served from the feature cache")
	}

	// Every permutation of the members, in either request form, is the
	// same canonical bag: cached hit, identical prediction.
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	for _, p := range perms {
		ms := make([]string, 3)
		for i, j := range p {
			ms[i] = fmt.Sprintf(`{"benchmark":%q,"batch":%d}`, bag[j].Benchmark, bag[j].Batch)
		}
		for _, body := range []string{
			fmt.Sprintf(`{"bag":[%s]}`, strings.Join(ms, ",")),
			fmt.Sprintf(`{"bags":[{"members":[%s]}]}`, strings.Join(ms, ",")),
		} {
			rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
			if rr.Code != http.StatusOK {
				t.Fatalf("perm %v: code %d body %s", p, rr.Code, rr.Body)
			}
			var resp PredictResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			got := resp.Results[0]
			if !got.Cached || got.PredictedSec != want || got.Fairness != fairness {
				t.Errorf("perm %v: cached=%v pred=%v fairness=%v, want cached hit of %v/%v",
					p, got.Cached, got.PredictedSec, got.Fairness, want, fairness)
			}
		}
	}
	// All permutations share one cache entry.
	if n := s.cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries after permuted requests, want 1", n)
	}
}

// TestPredictWrongBagSize400 pins the descriptive rejection in both
// directions: a pair request against a 3-app model and a 3-app request
// against a pair model each answer 400 with the trained size and the
// remedy in the message.
func TestPredictWrongBagSize400(t *testing.T) {
	pairBody := `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}`

	rr := doJSON(t, newK3Server(t, nil).Handler(), http.MethodPost, "/v1/predict", pairBody)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("pair bag on 3-app model answered %d: %s", rr.Code, rr.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"2 application(s)", "trained for 3-application bags", "retrain with -k 2"} {
		if !strings.Contains(er.Error, sub) {
			t.Errorf("pair-on-k3 error %q missing %q", er.Error, sub)
		}
	}

	rr = doJSON(t, newTestServer(t, nil).Handler(), http.MethodPost, "/v1/predict", k3Body)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("3-app bag on pair model answered %d: %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"3 application(s)", "trained for 2-application bags", "retrain with -k 3"} {
		if !strings.Contains(er.Error, sub) {
			t.Errorf("k3-on-pair error %q missing %q", er.Error, sub)
		}
	}

	// In a batched request the offending bag is identified by index.
	mixed := `{"bags":[
		{"members":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":40},{"benchmark":"knn","batch":20}]},
		{"members":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}]}`
	rr = doJSON(t, newK3Server(t, nil).Handler(), http.MethodPost, "/v1/predict", mixed)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("mixed-k batch answered %d: %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "bag 1") {
		t.Errorf("mixed-k error %q does not name the offending bag", er.Error)
	}
}

// TestPredictBagFormValidation covers the request-shape errors: a bag
// that mixes the members list with the retired a/b fields, the a/b form
// itself, and explicitly empty lists. Each names the accepted forms.
func TestPredictBagFormValidation(t *testing.T) {
	h := newK3Server(t, nil).Handler()
	cases := []struct {
		name, body, wantSub string
	}{
		{"mixed forms", `{"bags":[{"a":{"benchmark":"sift","batch":20},"members":[{"benchmark":"surf","batch":20}]}]}`, requestForms},
		{"pair form", `{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}`, requestForms},
		{"pair form in bags", `{"bags":[{"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}]}`, requestForms},
		{"empty members", `{"bags":[{"members":[]}]}`, "bags[0] has no \"members\"; " + requestForms},
		{"empty bag list", `{"bag":[]}`, "no bags: " + requestForms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, h, http.MethodPost, "/v1/predict", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("answered %d: %s", rr.Code, rr.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, tc.wantSub) {
				t.Errorf("error %q missing %q", er.Error, tc.wantSub)
			}
		})
	}
}

// TestServerConcurrentK3Hammer drives the 3-app handler concurrently
// (run under -race in CI) with permuted valid bags interleaved with
// wrong-size bags: valid requests succeed or shed with 503, wrong-size
// ones deterministically answer 400, and the in-flight gauge returns to
// zero.
func TestServerConcurrentK3Hammer(t *testing.T) {
	s := newK3Server(t, func(c *Config) { c.MaxInFlight = 8 })
	// Stub the featurizer so the hammer exercises concurrency, not the
	// simulator; width must match the 3-app model (31 features).
	width := s.cfg.Model.NumFeatures()
	s.featuresFn = func(bag []dataset.Member) ([]float64, float64, bool, error) {
		x := make([]float64, width)
		for i := range x {
			x[i] = 0.25
		}
		return x, 0.5, false, nil
	}
	h := s.Handler()

	members := []string{
		`{"benchmark":"sift","batch":20}`,
		`{"benchmark":"surf","batch":40}`,
		`{"benchmark":"knn","batch":20}`,
		`{"benchmark":"sift","batch":40}`,
	}
	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	var ok200, ok400, ok503 atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				var body string
				wrongSize := i%5 == 4
				if wrongSize {
					body = fmt.Sprintf(`{"bag":[%s,%s]}`, members[rng.Intn(4)], members[rng.Intn(4)])
				} else {
					p := rng.Perm(4)[:3]
					body = fmt.Sprintf(`{"bag":[%s,%s,%s]}`,
						members[p[0]], members[p[1]], members[p[2]])
				}
				rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
				switch {
				case wrongSize && rr.Code == http.StatusBadRequest:
					ok400.Add(1)
				case !wrongSize && rr.Code == http.StatusOK:
					ok200.Add(1)
				case rr.Code == http.StatusServiceUnavailable:
					ok503.Add(1) // limiter shed load; acceptable under hammer
				default:
					t.Errorf("wrongSize=%v: unexpected status %d: %s", wrongSize, rr.Code, rr.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no successful 3-app predictions under hammer")
	}
	if ok400.Load() == 0 {
		t.Fatal("no wrong-size rejections under hammer")
	}
	if got := s.Metrics().InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after hammer", got)
	}
}
