package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mapc/internal/dataset"
	"mapc/internal/parallel"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

const (
	fastK = 4
	// maxFastErr is the fidelity oracle's bound on the fast tier's
	// relative GPU bag-time error (the skew suite's gate).
	maxFastErr = 0.05
	// After timing, probeBags random 4-bags drawn with probeSeed are
	// measured on the warm fast-tier generator and again at exact
	// fidelity; model_err is their largest relative bag-time error, in
	// percent. The probe ignores the workload seed so the figure repeats
	// exactly between runs: any change in it is the program's.
	probeBags = 16
	probeSeed = 1
	// maxWarmPasses bounds set-up's sketch-fill passes.
	maxWarmPasses = 8
	// fastReplayBags is how many traced bags the co-run replay times.
	fastReplayBags = 256
)

// fastShares is the skew suite's most skewed 4-bag share profile.
var fastShares = []float64{0.85, 0.05, 0.05, 0.05}

func fastConfig(workers int, fid phasesum.Fidelity) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Workers = workers
	cfg.K = fastK
	cfg.Fidelity = fid
	cfg.Shares = fastShares
	return cfg
}

// setupFast builds a fast-tier generator and finishes its lazy fill: the
// per-(member, slot) phase sketches. Every homogeneous 4-bag puts its
// member in every slot; passes over them alternate direction, so a pass
// first touches the sketches the previous one left resident (making them
// the most recently used) and only then recomputes the ones the memo
// evicted, whose reference streams then evict older streams rather than
// sketches. Set-up ends with a pass that misses the memo nowhere.
func setupFast(o options) (*dataset.Generator, error) {
	gen, err := dataset.NewGenerator(fastConfig(o.workers, phasesum.Fast))
	if err != nil {
		return nil, err
	}
	reg := registry()
	for pass := 0; pass < maxWarmPasses; pass++ {
		misses := gen.SimCacheStats().Misses
		if err := parallel.ForEach(o.workers, len(reg), func(i int) error {
			if pass%2 == 1 {
				i = len(reg) - 1 - i
			}
			bag := make([]dataset.Member, fastK)
			for j := range bag {
				bag[j] = reg[i]
			}
			_, err := gen.MeasureBag(bag)
			return err
		}); err != nil {
			return nil, err
		}
		if gen.SimCacheStats().Misses == misses {
			return gen, nil
		}
	}
	return nil, fmt.Errorf("sketch fill still missing the simulation memo after %d passes", maxWarmPasses)
}

// fastRun is one timed loop: how many bags were measured, each one's
// completion offset and latency (ms), and the process CPU at the window
// boundaries.
type fastRun struct {
	n     int
	at    []time.Duration
	lat   []float64
	width time.Duration
	cpu   []time.Duration
}

// fastLoop measures seeded bags on o.workers goroutines for dur, each
// taking the next bag index as it finishes one, and checks each point's
// shape.
func fastLoop(o options, gen *dataset.Generator, next *atomic.Int64, dur time.Duration, tr *tracer) (fastRun, error) {
	reg := registry()
	width := fastK*10 + 1 // features.PerApp per member plus fairness
	r := fastRun{width: dur / windowsPerPhase}
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	start := time.Now()
	readCPU := cpuClock(start, r.width, windowsPerPhase)
	deadline := start.Add(dur)
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var at []time.Duration
			var lat []float64
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				bag := fastBag(reg, o.seed, i, fastK)
				var p dataset.Point
				t0 := time.Now()
				err := tr.timed("dataset.measure_bag", uint64(i+1), 0, func() (err error) {
					p, err = gen.MeasureBag(bag)
					return err
				})
				end := time.Now()
				if err == nil && (len(p.X) != width || !(p.Y > 0) || math.IsInf(p.Y, 0)) {
					err = fmt.Errorf("bag %v: %d features, bag time %v", dataset.BagKeyOf(bag), len(p.X), p.Y)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					continue
				}
				at = append(at, end.Sub(start))
				lat = append(lat, float64(end.Sub(t0))/float64(time.Millisecond))
			}
			mu.Lock()
			r.at = append(r.at, at...)
			r.lat = append(r.lat, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.cpu = readCPU()
	r.n = len(r.lat)
	if len(errs) > 0 {
		return r, fmt.Errorf("%d bags failed, first: %w", len(errs), errs[0])
	}
	return r, nil
}

// probe measures the probe bags on gen.
func probe(gen *dataset.Generator) ([]float64, error) {
	reg := registry()
	ys := make([]float64, probeBags)
	for j := range ys {
		p, err := gen.MeasureBag(fastBag(reg, probeSeed, j, fastK))
		if err != nil {
			return nil, err
		}
		ys[j] = p.Y
	}
	return ys, nil
}

// oracle re-measures the probe bags at exact fidelity on a fresh generator
// and returns the largest relative error of their fast-tier bag times
// fastYs; a bag past maxFastErr is a failed op.
func oracle(o options, res *result, fastYs []float64) (float64, error) {
	exact, err := dataset.NewGenerator(fastConfig(o.workers, phasesum.Exact))
	if err != nil {
		return 0, err
	}
	reg := registry()
	errs := make([]float64, len(fastYs))
	if err := parallel.ForEach(o.workers, len(fastYs), func(j int) error {
		p, err := exact.MeasureBag(fastBag(reg, probeSeed, j, fastK))
		if err != nil {
			return err
		}
		errs[j] = math.Abs(fastYs[j]-p.Y) / p.Y
		return nil
	}); err != nil {
		return 0, err
	}
	res.attempted += len(fastYs)
	worst := 0.0
	for j, e := range errs {
		worst = max(worst, e)
		if e > maxFastErr {
			res.fail(1, "probe bag %v: fast bag time %v, error %.4f > %g", dataset.BagKeyOf(fastBag(reg, probeSeed, j, fastK)), fastYs[j], e, maxFastErr)
		}
	}
	return worst, nil
}

func runFast(o options) (*result, error) {
	if o.trace {
		return traceFast(o)
	}
	gen, setupS, err := timedSetups(func() (*dataset.Generator, error) { return setupFast(o) }, func(*dataset.Generator) {})
	if err != nil {
		return nil, err
	}
	res := newResult()
	var next atomic.Int64
	runtime.GC()
	before := snapshot()
	run, loopErr := fastLoop(o, gen, &next, o.seconds, nil)
	win := since(before)
	res.attempted = int(next.Load())
	if loopErr != nil {
		res.fail(res.attempted-run.n, "%v", loopErr)
	}
	fastYs, err := probe(gen)
	if err != nil {
		return nil, err
	}
	gen = nil
	freeMemory()
	worst, err := oracle(o, res, fastYs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: bags-fast: %d bags on %d workers; %d probe bags re-measured exactly\n", run.n, o.workers, probeBags)
	res.values["setup_s"] = setupS
	res.values["ops_per_s"], res.values["cpu_us_per_op"] = closedStats(run.at, run.cpu, run.width)
	res.values["allocs_per_op"] = win.allocsPerOp(run.n)
	res.values["peak_rss_mb"] = peakRSSMB()
	res.values["model_err"] = 100 * worst
	return res, nil
}

// traceFast is the traced run: one set-up, an untraced loop for the
// overhead baseline, a traced loop with a span per MeasureBag call, then a
// replay of the contended co-runs of the first traced bags through the
// simulators' fast-tier calls.
func traceFast(o options) (*result, error) {
	tr := newTracer()
	gen, err := setupFast(o)
	if err != nil {
		return nil, err
	}
	res := newResult()
	half := o.seconds / 2
	var next atomic.Int64
	runtime.GC()
	before := snapshot()
	base, err := fastLoop(o, gen, &next, half, nil)
	baseWin := since(before)
	if err != nil {
		res.fail(int(next.Load())-base.n, "%v", err)
	}
	first := int(next.Load())
	simBefore, fidBefore := gen.SimCacheStats(), gen.FidelityStats()
	runtime.GC()
	before = snapshot()
	traced, err := fastLoop(o, gen, &next, o.seconds-half, tr)
	win := since(before)
	if err != nil {
		res.fail(int(next.Load())-first-traced.n, "%v", err)
	}
	res.attempted = int(next.Load())
	simAfter, fidAfter := gen.SimCacheStats(), gen.FidelityStats()

	fastYs, err := probe(gen)
	if err != nil {
		return nil, err
	}
	// Replay on a fresh memo, holding only the members' workloads once the
	// generator is dropped: one untimed pass fills the memo's sketches, so
	// the timed pass costs what the warm generator's calls cost.
	rp := newReplayer(gen.Config(), nil)
	rp.gen = gen
	reg := registry()
	bags := make([][]*isoRun, fastReplayBags)
	for j := range bags {
		if _, bags[j], err = rp.canonical(fastBag(reg, o.seed, first+j, fastK), 0, 0); err != nil {
			return nil, err
		}
	}
	rp.gen, gen = nil, nil
	freeMemory()
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			rp.tr = tr
		}
		for j, runs := range bags {
			if _, err := rp.sharedCPU("cpusim.shared_fast", runs, uint64(j+1), 0); err != nil {
				return nil, err
			}
			if _, err := rp.sharedGPU("gpusim.shared_fast", runs, uint64(j+1), 0); err != nil {
				return nil, err
			}
		}
	}
	rp = nil
	freeMemory()
	if _, err := oracle(o, res, fastYs); err != nil {
		return nil, err
	}

	v := res.values
	v["dataset.measure_bag_us"] = tr.meanDuration("dataset.measure_bag", time.Microsecond)
	v["bench.latency_samples"] = float64(traced.n)
	v["bench.latency_p50_ms"], v["bench.latency_p99_ms"] = latencyStats(traced.at, traced.lat, traced.width, windowsPerPhase)
	v["cpusim.shared_fast_us"] = tr.meanDuration("cpusim.shared_fast", time.Microsecond)
	v["gpusim.shared_fast_us"] = tr.meanDuration("gpusim.shared_fast", time.Microsecond)
	v["phasesum.analytic_runs"] = float64(fidAfter.AnalyticRuns - fidBefore.AnalyticRuns)
	v["phasesum.exact_fallbacks"] = float64(fidAfter.ExactFallbacks - fidBefore.ExactFallbacks)
	setSimcache(v, simDelta(simBefore, simAfter))
	v["runtime.gc_cpu_frac"] = win.gcFrac()
	v["bench.trace_overhead_frac"] = ratio(win.cpuUSPerOp(traced.n), baseWin.cpuUSPerOp(base.n)) - 1
	return res, tr.write(spansPath(o.spans, "bags-fast", o.seed))
}

// simDelta is the memo's counters over a window, with the resident bytes
// at its end.
func simDelta(a, b simcache.Stats) simcache.Stats {
	return simcache.Stats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Evictions: b.Evictions - a.Evictions, Bytes: b.Bytes}
}

// setSimcache reports a simulation-memo window: its hit ratio, misses,
// evictions and resident bytes.
func setSimcache(v map[string]float64, st simcache.Stats) {
	v["simcache.hit_ratio"] = st.HitRate()
	v["simcache.misses"] = float64(st.Misses)
	v["simcache.evictions"] = float64(st.Evictions)
	v["simcache.resident_mb"] = float64(st.Bytes) / (1 << 20)
}
