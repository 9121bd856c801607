package dataset

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"mapc/internal/ml"
)

// smallConfig is a reduced corpus configuration exercising all three
// generation loops (homogeneous, heterogeneous equal-batch, mixed-batch)
// while staying fast enough to regenerate several times per test.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Benchmarks = []string{"fast", "hog", "knn"}
	cfg.BatchSizes = []int{20, 40, 80}
	cfg.MixedPairs = 2
	return cfg
}

func generateWithWorkers(t *testing.T, cfg Config, workers int) *Corpus {
	t.Helper()
	cfg.Workers = workers
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGenerateGoldenAcrossWorkerCounts is the determinism golden test: the
// corpus must be bit-for-bit identical (points, ordering, features,
// targets, fairness, normalization constant) whether generated serially or
// on any worker pool, and a tree trained on each must predict identically.
func TestGenerateGoldenAcrossWorkerCounts(t *testing.T) {
	cfg := smallConfig()
	golden := generateWithWorkers(t, cfg, 1) // exact legacy serial path

	workerCounts := []int{4, runtime.NumCPU()}
	corpora := []*Corpus{golden}
	for _, w := range workerCounts {
		c := generateWithWorkers(t, cfg, w)
		corpora = append(corpora, c)
		if len(c.Points) != len(golden.Points) {
			t.Fatalf("workers=%d: %d points, serial %d", w, len(c.Points), len(golden.Points))
		}
		if c.CPUTimeDivisor != golden.CPUTimeDivisor {
			t.Errorf("workers=%d: divisor %v, serial %v", w, c.CPUTimeDivisor, golden.CPUTimeDivisor)
		}
		if !reflect.DeepEqual(c.FeatureNames, golden.FeatureNames) {
			t.Errorf("workers=%d: feature names differ", w)
		}
		for i := range golden.Points {
			gp, pp := &golden.Points[i], &c.Points[i]
			if !reflect.DeepEqual(gp.Members, pp.Members) {
				t.Fatalf("workers=%d point %d: members %v vs serial %v (ordering broken)",
					w, i, pp.Members, gp.Members)
			}
			if !reflect.DeepEqual(gp.X, pp.X) {
				t.Fatalf("workers=%d point %d: X differs", w, i)
			}
			if gp.Y != pp.Y || gp.Fairness != pp.Fairness {
				t.Fatalf("workers=%d point %d: Y/Fairness %v/%v vs serial %v/%v",
					w, i, pp.Y, pp.Fairness, gp.Y, gp.Fairness)
			}
			if !reflect.DeepEqual(gp.CPUTimes, pp.CPUTimes) || !reflect.DeepEqual(gp.GPUTimes, pp.GPUTimes) {
				t.Fatalf("workers=%d point %d: isolated times differ", w, i)
			}
			if gp.Homogeneous != pp.Homogeneous {
				t.Fatalf("workers=%d point %d: homogeneous flag differs", w, i)
			}
		}
	}

	// Trees trained on each corpus must predict identically on a probe
	// set (every corpus point doubles as a probe).
	var goldenPred []float64
	for ci, c := range corpora {
		tree := ml.NewTreeRegressor()
		if err := tree.Fit(c.Dataset()); err != nil {
			t.Fatal(err)
		}
		preds, err := tree.PredictAll(golden.Dataset().X)
		if err != nil {
			t.Fatal(err)
		}
		if ci == 0 {
			goldenPred = preds
			continue
		}
		if !reflect.DeepEqual(preds, goldenPred) {
			t.Errorf("corpus %d: trained tree predicts differently from serial tree", ci)
		}
	}
}

// TestBagsOrderIsCanonical pins the corpus ordering contract the parallel
// engine relies on: bag i of Bags() is point i of Generate().
func TestBagsOrderIsCanonical(t *testing.T) {
	cfg := smallConfig()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bags, err := gen.Bags()
	if err != nil {
		t.Fatal(err)
	}
	// 3 benchmarks x 3 batches homogeneous + C(3,2) hetero + 2 mixed.
	if want := 9 + 3 + 2; len(bags) != want {
		t.Fatalf("bags %d, want %d", len(bags), want)
	}
	c := generateWithWorkers(t, cfg, 2)
	sortedKey := func(ms []Member) string {
		s := append([]Member(nil), ms...)
		sort.Slice(s, func(i, j int) bool {
			if s[i].Benchmark != s[j].Benchmark {
				return s[i].Benchmark < s[j].Benchmark
			}
			return s[i].Batch < s[j].Batch
		})
		return BagKeyOf(s)
	}
	for i, bag := range bags {
		members := c.Points[i].Members
		// MeasureBag may canonically reorder members; compare as multisets.
		if sortedKey(members) != sortedKey(bag) {
			t.Errorf("point %d members %v, bag %v", i, members, bag)
		}
	}
}

// TestMixedBagsBoundedWalk is the regression test for the silent-stall
// hazard: the legacy mixed-batch loop never terminated when every (i,j)
// candidate collided (e.g. a single-benchmark registry). It must now fail
// fast with a descriptive error.
func TestMixedBagsBoundedWalk(t *testing.T) {
	batches := []int{20, 40, 80}

	// Single benchmark: every candidate pair collides — legacy infinite loop.
	if _, err := mixedBags([]string{"fast"}, batches, 2, 2); err == nil {
		t.Fatal("single-benchmark mixed walk did not error")
	} else if !strings.Contains(err.Error(), "mixed-batch") {
		t.Errorf("undescriptive error: %v", err)
	}

	// Empty registry.
	if _, err := mixedBags(nil, batches, 1, 2); err == nil {
		t.Fatal("empty-registry mixed walk did not error")
	}

	// Feasible registries still produce exactly the requested count.
	out, err := mixedBags([]string{"fast", "hog", "knn"}, batches, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d mixed pairs, want 5", len(out))
	}
	for _, bag := range out {
		if bag[0].Benchmark == bag[1].Benchmark {
			t.Errorf("mixed pair is homogeneous: %v", bag)
		}
		if bag[0].Batch == 20 || bag[1].Batch == 20 {
			t.Errorf("mixed pair uses the base batch: %v", bag)
		}
	}

	// Legacy skip conditions: too few batch sizes or no requested pairs.
	if out, err := mixedBags([]string{"fast"}, []int{20, 40}, 3, 2); err != nil || out != nil {
		t.Errorf("two-batch config should skip mixed pairs, got %v, %v", out, err)
	}
	if out, err := mixedBags([]string{"fast", "hog"}, batches, 0, 2); err != nil || out != nil {
		t.Errorf("zero count should skip mixed pairs, got %v, %v", out, err)
	}
}

// TestGenerateSingleBenchmarkErrors covers the end-to-end stall fix: a
// generator restricted to one benchmark with mixed pairs requested must
// return an error instead of hanging Generate forever.
func TestGenerateSingleBenchmarkErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Benchmarks = []string{"fast"}
	cfg.BatchSizes = []int{20, 40, 80}
	cfg.MixedPairs = 2
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(); err == nil {
		t.Fatal("Generate with an unsatisfiable mixed-pair walk did not error")
	}
}

func TestConfigValidationParallelKnobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("negative worker count accepted")
	}
	cfg = DefaultConfig()
	cfg.Benchmarks = []string{"not-a-benchmark"}
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("unknown benchmark subset accepted")
	}
	if got := (Config{Workers: 3}).EffectiveWorkers(); got != 3 {
		t.Errorf("EffectiveWorkers(3) = %d", got)
	}
	if got := (Config{}).EffectiveWorkers(); got != runtime.NumCPU() {
		t.Errorf("EffectiveWorkers(0) = %d, want NumCPU", got)
	}
	if got := DefaultConfig().BenchmarkNames(); len(got) != 9 {
		t.Errorf("default benchmark list %v", got)
	}
}

// TestMeasureCacheSingleflight hammers the memoized measure() cache from
// concurrent goroutines: every caller must observe the same *measurement
// (the member's workload was computed exactly once), with no data races
// (run under -race in CI).
func TestMeasureCacheSingleflight(t *testing.T) {
	cfg := smallConfig()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := []Member{
		{Benchmark: "fast", Batch: 20},
		{Benchmark: "hog", Batch: 20},
		{Benchmark: "knn", Batch: 40},
	}
	const goroutines = 16
	got := make([][]*measurement, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for _, m := range members {
				mm, err := gen.measure(m)
				if err != nil {
					t.Error(err)
					return
				}
				got[gi] = append(got[gi], mm)
				// The read-side accessors share the same memo.
				if _, _, err := gen.IsolatedTimes(m); err != nil {
					t.Error(err)
					return
				}
				if _, err := gen.Workload(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for gi := 1; gi < goroutines; gi++ {
		for mi := range members {
			if got[gi][mi] != got[0][mi] {
				t.Fatalf("goroutine %d observed a different measurement for %v: singleflight broken",
					gi, members[mi])
			}
		}
	}
}

// TestConcurrentMeasureBag hammers MeasureBag itself on overlapping
// bags (shared members) and checks every goroutine computes the same
// points a serial generator does.
func TestConcurrentMeasureBag(t *testing.T) {
	cfg := smallConfig()
	bags := [][]Member{
		{{Benchmark: "fast", Batch: 20}, {Benchmark: "hog", Batch: 20}},
		{{Benchmark: "fast", Batch: 20}, {Benchmark: "knn", Batch: 20}},
		{{Benchmark: "hog", Batch: 20}, {Benchmark: "knn", Batch: 20}},
		{{Benchmark: "fast", Batch: 20}, {Benchmark: "fast", Batch: 20}},
	}

	serialGen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Point, len(bags))
	for i, bag := range bags {
		want[i], err = serialGen.MeasureBag(bag)
		if err != nil {
			t.Fatal(err)
		}
	}

	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const repeat = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(bags)*repeat)
	for r := 0; r < repeat; r++ {
		for i, bag := range bags {
			wg.Add(1)
			go func(i int, bag []Member) {
				defer wg.Done()
				p, err := gen.MeasureBag(bag)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(p, want[i]) {
					errs <- fmt.Errorf("bag %d: concurrent point differs from serial", i)
				}
			}(i, bag)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
