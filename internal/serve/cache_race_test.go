package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"mapc/internal/dataset"
)

// TestFeatureCacheSingleflightHammer hammers the shared feature cache from
// many goroutines (run under -race in CI) and proves each distinct bag's
// computation runs exactly once.
func TestFeatureCacheSingleflightHammer(t *testing.T) {
	var computes atomic.Int64
	c := newStubFeatureCache(func(bag []dataset.Member) ([]float64, float64, error) {
		computes.Add(1)
		return []float64{float64(bag[0].Batch), float64(bag[1].Batch)}, 0.5, nil
	}, true, 64<<20)

	members := []dataset.Member{
		{Benchmark: "sift", Batch: 20},
		{Benchmark: "sift", Batch: 40},
		{Benchmark: "surf", Batch: 20},
		{Benchmark: "surf", Batch: 40},
		{Benchmark: "knn", Batch: 80},
	}
	// Distinct canonical bags among 5 members (unordered pairs with
	// repetition): C(5,2)+5 = 15.
	const wantKeys = 15

	const goroutines = 32
	const iters = 200
	var wg sync.WaitGroup
	var hits atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := members[(g+i)%len(members)]
				b := members[(g*7+i*3)%len(members)]
				x, fairness, hit, err := c.get([]dataset.Member{a, b})
				if err != nil {
					t.Error(err)
					return
				}
				if hit {
					hits.Add(1)
				}
				if len(x) != 2 || fairness != 0.5 {
					t.Errorf("bad result %v %v", x, fairness)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := computes.Load(); got != wantKeys {
		t.Errorf("compute ran %d times for %d distinct bags", got, wantKeys)
	}
	if c.Len() != wantKeys {
		t.Errorf("cache holds %d entries, want %d", c.Len(), wantKeys)
	}
	if hits.Load() == 0 {
		t.Error("no cache hits across the hammer")
	}
}

// TestServerConcurrentPredictHammer drives the full handler concurrently
// with a stub featurizer, exercising the limiter, gauge, histogram and
// cache accounting under -race.
func TestServerConcurrentPredictHammer(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 8; c.Workers = 2 })
	gen, _ := fixture(t)
	// Stub features: constant-width vectors, no simulation, so the hammer
	// is fast; width must match the model (21 features for 2-app bags).
	width := s.cfg.Model.NumFeatures()
	s.featuresFn = func(bag []dataset.Member) ([]float64, float64, bool, error) {
		x := make([]float64, width)
		for i := range x {
			x[i] = 0.25
		}
		return x, 0.5, false, nil
	}
	_ = gen
	h := s.Handler()

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	var ok200, ok503 atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := fmt.Sprintf(
					`{"bags":[{"members":[{"benchmark":"sift","batch":%d},{"benchmark":"surf","batch":%d}]},
					          {"members":[{"benchmark":"surf","batch":%d},{"benchmark":"sift","batch":%d}]}]}`,
					20+(i%3)*20, 20+(g%3)*20, 20, 40)
				rr := doJSON(t, h, http.MethodPost, "/v1/predict", body)
				switch rr.Code {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					ok503.Add(1) // limiter shed load; acceptable under hammer
				default:
					t.Errorf("unexpected status %d: %s", rr.Code, rr.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no successful predictions under hammer")
	}
	if got := s.Metrics().InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after hammer", got)
	}
}
