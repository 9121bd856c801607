package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mapc/internal/dataset"
)

// Golden corpus hashes, pinned by internal/dataset/golden_hash_test.go
// under the same serialization as hashCorpus.
const (
	goldenFullCorpusHash  = "7d3d4de57a0939f2b372085f135ea36aa5b2caff391404b059bc3ffcc8b06d4c"
	goldenSmallCorpusHash = "167da8cf8563b96c2339e180b72fa94bf65201cb0e0e66f8d80bcfa4be0df7a9"
)

// hashCorpus is the golden-hash serialization: every numeric field of the
// corpus at full float64 round-trip precision, then SHA-256.
func hashCorpus(c *dataset.Corpus) string {
	var sb strings.Builder
	f := func(v float64) {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(',')
	}
	fmt.Fprintf(&sb, "names=%s;", strings.Join(c.FeatureNames, ","))
	f(c.CPUTimeDivisor)
	for i := range c.Points {
		p := &c.Points[i]
		fmt.Fprintf(&sb, ";%s/%d+%s/%d:%t:",
			p.Members[0].Benchmark, p.Members[0].Batch,
			p.Members[1].Benchmark, p.Members[1].Batch, p.Homogeneous)
		for _, v := range p.X {
			f(v)
		}
		f(p.Y)
		f(p.Fairness)
		f(p.CPUTimes[0])
		f(p.CPUTimes[1])
		f(p.GPUTimes[0])
		f(p.GPUTimes[1])
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// paperConfig is the 91-point Section V-B corpus on workers workers.
func paperConfig(workers int) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// smallConfig is the reduced corpus the small golden hash pins: three
// benchmarks at three batches.
func smallConfig(workers int) dataset.Config {
	cfg := paperConfig(workers)
	cfg.Benchmarks = []string{"fast", "hog", "knn"}
	cfg.BatchSizes = []int{20, 40, 80}
	cfg.MixedPairs = 2
	return cfg
}

// generate builds one corpus from cold with a fresh generator.
func generate(cfg dataset.Config) (*dataset.Generator, *dataset.Corpus, error) {
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := gen.Generate()
	return gen, c, err
}

// setupCorpus is corpus-exact's set-up: the small golden corpus, generated
// once from cold and checked, which also brings the process's heap and
// simulator code to a steady state before the timed corpora.
func setupCorpus(o options, res *result) error {
	_, c, err := generate(smallConfig(o.workers))
	if err != nil {
		return err
	}
	if h := hashCorpus(c); h != goldenSmallCorpusHash {
		res.mismatch("small corpus hash %s, golden %s", h, goldenSmallCorpusHash)
	}
	return nil
}

func runCorpus(o options) (*result, error) {
	res := newResult()
	if o.trace {
		return res, traceCorpus(o, res)
	}
	_, setupS, err := timedSetups(func() (struct{}, error) { return struct{}{}, setupCorpus(o, res) }, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	// One untimed, checked corpus first: the first full corpus after
	// set-up grows the heap to its working size and runs measurably slower
	// than the ones after it.
	freeMemory()
	if _, c, err := generate(paperConfig(o.workers)); err != nil {
		return nil, err
	} else if h := hashCorpus(c); h != goldenFullCorpusHash {
		res.mismatch("warm-up corpus hash %s, golden %s", h, goldenFullCorpusHash)
	}
	var total window
	var times, cpuPerOp []float64
	var last *dataset.Corpus
	for total.wall < o.seconds {
		runtime.GC() // the previous corpus's generator is garbage; collect it untimed
		before := snapshot()
		_, c, err := generate(paperConfig(o.workers))
		win := since(before)
		if err != nil {
			return nil, err
		}
		total.add(win)
		times = append(times, float64(win.wall)/float64(time.Millisecond))
		cpuPerOp = append(cpuPerOp, win.cpuUSPerOp(len(c.Points)))
		res.attempted += len(c.Points)
		if h := hashCorpus(c); h != goldenFullCorpusHash {
			res.fail(len(c.Points), "corpus %d hash %s, golden %s", len(times), h, goldenFullCorpusHash)
		}
		last = c
	}
	modelErr, err := loocvErr(last)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: corpus-exact: %d corpora of %d points on %d workers, median %.0f ms a corpus\n", len(times), len(last.Points), o.workers, median(times))
	res.values["setup_s"] = setupS
	// Each corpus is a window: the figures are medians over corpora.
	res.values["ops_per_s"] = float64(len(last.Points)) / (median(times) / 1000)
	res.values["cpu_us_per_op"] = median(cpuPerOp)
	res.values["allocs_per_op"] = total.allocsPerOp(res.attempted)
	res.values["peak_rss_mb"] = peakRSSMB()
	res.values["model_err"] = modelErr
	return res, nil
}

// traceCorpus generates one corpus untraced (the overhead baseline and the
// simulation-memo counters), then replays the generator's steps with a
// span around every simulator call. The replay's bag times must equal the
// corpus's bit for bit.
func traceCorpus(o options, res *result) error {
	tr := newTracer()
	if err := setupCorpus(o, res); err != nil {
		return err
	}
	freeMemory()
	before := snapshot()
	gen, c, err := generate(paperConfig(o.workers))
	baseWin := since(before)
	if err != nil {
		return err
	}
	res.attempted += len(c.Points)
	if h := hashCorpus(c); h != goldenFullCorpusHash {
		res.fail(len(c.Points), "corpus hash %s, golden %s", h, goldenFullCorpusHash)
	}
	st := gen.SimCacheStats()
	bags, err := gen.Bags()
	if err != nil {
		return err
	}
	gen = nil
	freeMemory()

	before = snapshot()
	ys, wall, err := newReplayer(paperConfig(o.workers), tr).corpus(bags, o.workers)
	win := since(before)
	if err != nil {
		return err
	}
	res.attempted += len(ys)
	diff := 0
	for i, y := range ys {
		if math.Float64bits(y) != math.Float64bits(c.Points[i].Y) {
			diff++
		}
	}
	if diff > 0 {
		res.fail(diff, "replay: %d of %d bag times differ from the corpus", diff, len(ys))
	}

	v := res.values
	v["vision.run_ms"] = tr.meanDuration("vision.run", time.Millisecond)
	v["mica.analyze_ms"] = tr.meanDuration("mica.analyze", time.Millisecond)
	v["cpusim.isolated_ms"] = tr.meanDuration("cpusim.isolated", time.Millisecond)
	v["gpusim.isolated_ms"] = tr.meanDuration("gpusim.isolated", time.Millisecond)
	v["cpusim.shared_ms"] = tr.meanDuration("cpusim.shared", time.Millisecond)
	v["gpusim.shared_ms"] = tr.meanDuration("gpusim.shared", time.Millisecond)
	v["dataset.bag_features_ms"] = tr.meanDuration("dataset.bag_features", time.Millisecond)
	v["features.bag_vector_us"] = tr.meanDuration("features.bag_vector", time.Microsecond)
	v["parallel.busy_frac"] = tr.busyFrac("dataset.bag", wall, o.workers)
	setSimcache(v, st)
	v["runtime.gc_cpu_frac"] = win.gcFrac()
	v["bench.trace_overhead_frac"] = ratio(win.cpuUSPerOp(len(ys)), baseWin.cpuUSPerOp(len(c.Points))) - 1
	return tr.write(spansPath(o.spans, "corpus-exact", o.seed))
}
