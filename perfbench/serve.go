package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapc/internal/cluster"
	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/parallel"
	"mapc/internal/serve"
	"mapc/internal/vision"
)

// serveSpec is one serving workload: a k-bag paper model behind an
// in-process cluster.Router with serveReplicas in-process replicas.
type serveSpec struct {
	name string
	k    int
	tail bool
	// openRPS is the open loop's fixed offered rate, about a third of the
	// closed-loop capacity measured when the benchmark was defined. It is
	// a constant so that a faster commit is compared at the same load.
	openRPS float64
}

var (
	serveHit  = serveSpec{name: "serve-hit", k: 2, openRPS: 2100}
	serveTail = serveSpec{name: "serve-tail", k: 3, tail: true, openRPS: 150}
)

const (
	serveReplicas = 2
	// closedShare is the percentage of --seconds a traced run gives to the
	// closed loop; the open loop gets the rest.
	closedShare = 50
	// tailWarmup is how many leading serve-tail requests set-up sends, so
	// connections and code paths are warm before timing.
	tailWarmup = 16
	// hotRequests is the length of serve-hit's request ring.
	hotRequests = 1 << 14
	// maxReplayBodies bounds the forwarded bodies a traced run keeps.
	maxReplayBodies = 4096
	// tailReplayBags is how many fresh serve-tail bags the traced run
	// replays through Generator.BagFeatures and cpusim.
	tailReplayBags = 24
)

// tier is the running router and replicas.
type tier struct {
	urls      []string // replica base URLs
	url       string   // router base URL
	servers   []*http.Server
	transport *tracingTransport // traced runs only
	stop      context.CancelFunc
	wg        sync.WaitGroup
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startTier starts the replicas and the router in process. With a tracer,
// each replica handler and the router handler are wrapped in spans and
// the router forwards through a tracingTransport; without one the tier is
// exactly what mapc-serve and mapc-router run (the router's Client nil).
func startTier(gen *dataset.Generator, model *core.Predictor, workers int, tr *tracer) (*tier, error) {
	t := &tier{}
	serveOn := func(ln net.Listener, h http.Handler) {
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		t.servers = append(t.servers, hs)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
	}
	for i := 0; i < serveReplicas; i++ {
		s, err := serve.New(serve.Config{
			Model: model, Generator: gen, Workers: workers,
			BrownoutWatermark: serve.DefaultBrownoutWatermark,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		ln, url, err := listen()
		if err != nil {
			t.close()
			return nil, err
		}
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.wrapHandler("serve.replica", h)
		}
		serveOn(ln, h)
		t.urls = append(t.urls, url)
	}
	pool, err := cluster.NewPool(cluster.PoolConfig{Replicas: t.urls})
	if err != nil {
		t.close()
		return nil, err
	}
	rc := cluster.RouterConfig{Pool: pool}
	if tr != nil {
		t.transport = newTracingTransport(tr, maxReplayBodies)
		rc.Client = &http.Client{Transport: t.transport}
	}
	router, err := cluster.NewRouter(rc)
	if err != nil {
		t.close()
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		t.close()
		return nil, err
	}
	var h http.Handler = router.Handler()
	if tr != nil {
		h = tr.wrapHandler("cluster.router", h)
	}
	serveOn(ln, h)
	t.url = url
	ctx, cancel := context.WithCancel(context.Background())
	t.stop = cancel
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		pool.Start(ctx) // health probes, as mapc-router runs them
	}()
	return t, nil
}

// close stops the probes and servers and waits for their goroutines.
func (t *tier) close() {
	if t.stop != nil {
		t.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range t.servers {
		_ = hs.Shutdown(ctx) // nothing is in flight when the benchmark closes a tier
	}
	t.wg.Wait()
}

// scrape reads a Prometheus text exposition into name{labels} -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// counters sums the replica and router counters the per-layer metrics
// read, so a window's delta is after minus before.
type counters struct{ hits, misses, rejected, retries float64 }

func (t *tier) counters() (counters, error) {
	var c counters
	for _, u := range t.urls {
		m, err := scrape(u)
		if err != nil {
			return c, err
		}
		c.hits += m["mapc_feature_cache_hits_total"]
		c.misses += m["mapc_feature_cache_misses_total"]
		for _, r := range []string{"saturated", "timeout", "validation"} {
			c.rejected += m[`mapc_rejected_total{reason="`+r+`"}`]
		}
	}
	m, err := scrape(t.url)
	if err != nil {
		return c, err
	}
	c.retries = m["mapc_router_retries_total"]
	return c, nil
}

// answer is one 200 response, kept for the check after timing.
type answer struct {
	key        int
	pred, fair uint64 // float64 bits
}

// reference is the expected answer for one distinct bag, computed by
// direct Generator.BagFeatures plus Predictor.PredictRaw.
type reference struct {
	x          []float64
	pred, fair float64
}

func computeRef(gen *dataset.Generator, model *core.Predictor, bag []dataset.Member) (reference, error) {
	x, fair, err := gen.BagFeatures(bag)
	if err != nil {
		return reference{}, err
	}
	pred, err := model.PredictRaw(x)
	if err != nil {
		return reference{}, err
	}
	return reference{x: x, pred: pred, fair: fair}, nil
}

// client is the in-process load generator: at most conns connections.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
}

func newClient(url string, conns int, tr *tracer) *client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	t.MaxConnsPerHost = conns
	return &client{hc: &http.Client{Transport: t}, url: url, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and checks its shape: a 200 whose single result
// names the bag's members in the order sent. The values are checked after
// timing, against the references.
func (c *client) do(req request) (answer, error) {
	body, err := json.Marshal(serve.PredictRequest{Bag: req.bag})
	if err != nil {
		return answer{}, err
	}
	hr, err := http.NewRequest(http.MethodPost, c.url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	s := c.tr.begin("bench.request", 0, 0)
	if c.tr != nil {
		s.Trace = s.ID
		traceRef{s.Trace, s.ID}.stamp(hr.Header)
		defer c.tr.end(s)
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return answer{}, fmt.Errorf("decoding response: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	if len(pr.Results) != 1 || pr.Degraded || pr.ModelScheme != core.SchemeFull.Name {
		return answer{}, fmt.Errorf("response has %d results, degraded=%v, scheme %q", len(pr.Results), pr.Degraded, pr.ModelScheme)
	}
	got := pr.Results[0]
	if len(got.Members) != len(req.bag) {
		return answer{}, fmt.Errorf("response names %d members for a %d-member bag", len(got.Members), len(req.bag))
	}
	for i := range got.Members {
		if got.Members[i] != req.bag[i] {
			return answer{}, fmt.Errorf("response member %d is %v, sent %v", i, got.Members[i], req.bag[i])
		}
	}
	return answer{key: req.key, pred: math.Float64bits(got.PredictedSec), fair: math.Float64bits(got.Fairness)}, nil
}

// loop is one load phase's tally. at holds each answered request's offset
// from the phase start — completion for the closed loop, due time for the
// open loop — aligned with lat, for the per-window statistics.
type loop struct {
	mu      sync.Mutex
	sent    int
	failed  int
	at      []time.Duration
	lat     []time.Duration // closed: from send; open: from due time
	late    []time.Duration // open loop: send time minus due time
	answers []answer
	width   time.Duration   // window width
	cpu     []time.Duration // closed loop: process CPU at window boundaries
	elapsed time.Duration
	errs    []string
}

func (l *loop) record(a answer, err error, at, lat, late time.Duration, open bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent++
	if open {
		l.late = append(l.late, late)
	}
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.at = append(l.at, at)
	l.lat = append(l.lat, lat)
	l.answers = append(l.answers, a)
}

// cursor hands out stream positions; a wrapping stream cycles, a
// non-wrapping one runs out.
type cursor struct {
	s    *stream
	wrap bool
	next atomic.Int64
}

func (c *cursor) take() (request, bool) {
	i := int(c.next.Add(1) - 1)
	if c.wrap {
		return c.s.reqs[i%len(c.s.reqs)], true
	}
	if i >= len(c.s.reqs) {
		return request{}, false
	}
	return c.s.reqs[i], true
}

// closedLoop runs conns callers that each send their next request as soon
// as the previous one completes, for dur.
func (c *client) closedLoop(cur *cursor, conns int, dur time.Duration) *loop {
	l := &loop{width: dur / windowsPerPhase}
	start := time.Now()
	readCPU := cpuClock(start, l.width, windowsPerPhase)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req, ok := cur.take()
				if !ok {
					return
				}
				t0 := time.Now()
				a, err := c.do(req)
				end := time.Now()
				l.record(a, err, end.Sub(start), end.Sub(t0), 0, false)
			}
		}()
	}
	wg.Wait()
	l.cpu = readCPU()
	l.elapsed = time.Since(start)
	return l
}

// openLoop offers rate requests/s for dur on a fixed schedule, one sender
// goroutine per connection: request j is due at start + j/rate and goes
// out on connection j mod conns. A sender that falls behind sends at once;
// latency is timed from the due time, so a stall is charged to every
// request it delays, and how late each send was is recorded.
func (c *client) openLoop(cur *cursor, conns int, rate float64, dur time.Duration) *loop {
	l := &loop{width: dur / windowsPerPhase}
	start := time.Now()
	n := int(rate * dur.Seconds())
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < n; j += conns {
				offset := time.Duration(float64(j) / rate * float64(time.Second))
				due := start.Add(offset)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				req, ok := cur.take()
				if !ok {
					return
				}
				sent := time.Now()
				a, err := c.do(req)
				l.record(a, err, offset, time.Since(due), sent.Sub(due), true)
			}
		}()
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	return l
}

// serveRun is one set-up of a serving workload.
type serveRun struct {
	spec   serveSpec
	gen    *dataset.Generator
	model  *core.Predictor
	corpus *dataset.Corpus
	tier   *tier
	stream stream
	cur    *cursor
	refs   map[int]reference // by stream key
}

func (r *serveRun) close() {
	if r.tier != nil {
		r.tier.close()
	}
}

// setupServe generates the training corpus, trains the paper model,
// starts the tier and warms it: serve-hit computes the hot set's
// references and sends each hot bag once (so every timed request is a
// feature-cache hit); serve-tail sends its first tailWarmup requests.
func setupServe(o options, spec serveSpec, tr *tracer) (*serveRun, error) {
	cfg := dataset.DefaultConfig()
	cfg.K = spec.k
	cfg.Workers = o.workers
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	r := &serveRun{spec: spec, gen: gen, refs: map[int]reference{}}
	if err := tr.timed("dataset.generate", 0, 0, func() (err error) {
		r.corpus, err = gen.Generate()
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.timed("core.train", 0, 0, func() (err error) {
		r.model, err = core.Train(r.corpus, core.SchemeFull, core.DefaultTreeParams())
		return err
	}); err != nil {
		return nil, err
	}
	if r.tier, err = startTier(gen, r.model, o.workers, nil); err != nil {
		return nil, err
	}
	if spec.tail {
		r.stream = tailStream(o.seed, spec.k)
		r.cur = &cursor{s: &r.stream}
	} else {
		r.stream = hotStream(o.seed, spec.k, hotRequests)
		r.cur = &cursor{s: &r.stream, wrap: true}
		for key, bag := range r.stream.bags {
			if r.refs[key], err = computeRef(gen, r.model, bag); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	if err := r.warm(o); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warm sends the warm-up requests through the router and insists on 200s.
func (r *serveRun) warm(o options) error {
	c := newClient(r.tier.url, o.workers, nil)
	defer c.close()
	var reqs []request
	if r.spec.tail {
		for i := 0; i < tailWarmup; i++ {
			req, _ := r.cur.take()
			reqs = append(reqs, req)
		}
	} else {
		for key, bag := range r.stream.bags {
			reqs = append(reqs, request{bag: toWire(bag), key: key})
		}
	}
	for _, req := range reqs {
		if _, err := c.do(req); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// check compares every answer with its bag's reference, bit for bit,
// computing the references set-up did not make (serve-tail's fresh bags)
// now that timing has ended. Each wrong answer is a failed op.
func (r *serveRun) check(o options, res *result, answers []answer) error {
	var keys []int
	for _, a := range answers {
		if _, ok := r.refs[a.key]; !ok {
			r.refs[a.key] = reference{}
			keys = append(keys, a.key)
		}
	}
	refs := make([]reference, len(keys))
	if err := parallel.ForEach(o.workers, len(keys), func(i int) (err error) {
		refs[i], err = computeRef(r.gen, r.model, r.stream.bags[keys[i]])
		return err
	}); err != nil {
		return fmt.Errorf("computing references: %w", err)
	}
	for i, k := range keys {
		r.refs[k] = refs[i]
	}
	wrong, first := 0, ""
	for _, a := range answers {
		ref := r.refs[a.key]
		if a.pred != math.Float64bits(ref.pred) || a.fair != math.Float64bits(ref.fair) {
			if wrong == 0 {
				first = fmt.Sprintf("%s answered (%v, %v), reference (%v, %v)", dataset.BagKeyOf(r.stream.bags[a.key]),
					math.Float64frombits(a.pred), math.Float64frombits(a.fair), ref.pred, ref.fair)
			}
			wrong++
		}
	}
	if wrong > 0 {
		res.fail(wrong, "%d answers differ from their references; first: %s", wrong, first)
	}
	return nil
}

// tally adds a phase's sends and failures to the result.
func tally(res *result, phase string, l *loop) {
	res.attempted += l.sent
	if l.failed > 0 {
		res.fail(l.failed, "%s: %d of %d requests failed, first: %s", phase, l.failed, l.sent, strings.Join(l.errs, "; "))
	}
}

func loocvErr(c *dataset.Corpus) (float64, error) {
	rs, err := core.LOOCV(c, core.SchemeFull, core.DefaultTreeParams(), core.HoldOutOwn)
	if err != nil {
		return 0, err
	}
	return core.MeanLOOCVError(rs), nil
}

func runServe(o options, spec serveSpec) (*result, error) {
	if o.trace {
		return traceServe(o, spec)
	}
	run, setupS, err := timedSetups(func() (*serveRun, error) { return setupServe(o, spec, nil) }, (*serveRun).close)
	if err != nil {
		return nil, err
	}
	defer run.close()
	res := newResult()
	c := newClient(run.tier.url, o.workers, nil)
	defer c.close()

	// Latency is a per-layer metric, so the untraced run gives all of
	// --seconds to the closed loop; the open loop runs in the traced run.
	runtime.GC()
	before := snapshot()
	closed := c.closedLoop(run.cur, o.workers, o.seconds)
	win := since(before)
	tally(res, "closed loop", closed)
	if err := run.check(o, res, closed.answers); err != nil {
		return nil, err
	}
	modelErr, err := loocvErr(run.corpus)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: closed loop %d requests in %v on %d connections\n",
		spec.name, closed.sent, closed.elapsed.Round(time.Millisecond), o.workers)
	res.values["setup_s"] = setupS
	res.values["ops_per_s"], res.values["cpu_us_per_op"] = closedStats(closed.at, closed.cpu, closed.width)
	res.values["allocs_per_op"] = win.allocsPerOp(len(closed.answers))
	res.values["peak_rss_mb"] = peakRSSMB()
	res.values["model_err"] = modelErr
	return res, nil
}

// traceServe is the traced run: one set-up, an untraced closed loop for
// the overhead baseline, then a traced tier (same generator and model)
// under the closed and open loops, the wire replay and the miss replay.
func traceServe(o options, spec serveSpec) (*result, error) {
	tr := newTracer()
	run, err := setupServe(o, spec, tr)
	if err != nil {
		return nil, err
	}
	defer run.close()
	res := newResult()
	closedDur := o.seconds * closedShare / 100

	c := newClient(run.tier.url, o.workers, nil)
	runtime.GC()
	before := snapshot()
	base := c.closedLoop(run.cur, o.workers, closedDur)
	baseWin := since(before)
	c.close()
	run.tier.close()
	tally(res, "untraced closed loop", base)

	if run.tier, err = startTier(run.gen, run.model, o.workers, tr); err != nil {
		return nil, err
	}
	if !spec.tail {
		if err := run.warm(o); err != nil {
			return nil, err
		}
	}
	c = newClient(run.tier.url, o.workers, tr)
	defer c.close()
	cBefore, err := run.tier.counters()
	if err != nil {
		return nil, err
	}
	simBefore := run.gen.SimCacheStats()
	runtime.GC()
	before = snapshot()
	closed := c.closedLoop(run.cur, o.workers, closedDur)
	win := since(before)
	runtime.GC()
	open := c.openLoop(run.cur, o.workers, spec.openRPS, o.seconds-closedDur)
	cAfter, err := run.tier.counters()
	if err != nil {
		return nil, err
	}
	simAfter := run.gen.SimCacheStats()
	tally(res, "traced closed loop", closed)
	tally(res, "traced open loop", open)
	answers := append(append(base.answers, closed.answers...), open.answers...)
	if err := run.check(o, res, answers); err != nil {
		return nil, err
	}

	v := res.values
	v["cluster.router_self_us"] = tr.meanSelf("cluster.router", "cluster.forward", time.Microsecond)
	v["cluster.forward_us"] = tr.meanDuration("cluster.forward", time.Microsecond)
	v["serve.replica_us"] = tr.meanDuration("serve.replica", time.Microsecond)
	v["cluster.retries"] = cAfter.retries - cBefore.retries
	v["serve.rejected"] = cAfter.rejected - cBefore.rejected
	hits, misses := cAfter.hits-cBefore.hits, cAfter.misses-cBefore.misses
	v["serve.feature_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["serve.feature_cache_misses"] = misses
	setSimcache(v, simDelta(simBefore, simAfter))
	v["dataset.generate_s"] = tr.meanDuration("dataset.generate", time.Second)
	v["core.train_ms"] = tr.meanDuration("core.train", time.Millisecond)
	v["runtime.gc_cpu_frac"] = win.gcFrac()
	v["bench.latency_samples"] = float64(len(open.lat))
	v["bench.latency_p50_ms"], v["bench.latency_p99_ms"] = latencyStats(open.at, durationsMS(open.lat), open.width, windowsPerPhase)
	v["bench.send_late_p99_ms"] = quantile(durationsMS(open.late), 0.99)
	v["bench.trace_overhead_frac"] = ratio(win.cpuUSPerOp(len(closed.answers)), baseWin.cpuUSPerOp(len(base.answers))) - 1
	if err := run.replayWire(res, tr); err != nil {
		return nil, err
	}
	if spec.tail {
		if err := run.replayMisses(res, tr, closed.answers); err != nil {
			return nil, err
		}
	}
	return res, tr.write(spansPath(o.spans, spec.name, o.seed))
}

// replayWire times the per-request machinery a replica runs on a hit —
// decode, validation, bag key, tree walk, encode — over the forwarded
// bodies the traced run recorded, one stage at a time.
func (r *serveRun) replayWire(res *result, tr *tracer) error {
	bodies := r.tier.transport.recorded()
	if len(bodies) == 0 {
		return errors.New("traced run recorded no forwarded bodies")
	}
	decoded := make([][][]serve.Member, len(bodies))
	decode := func(i int) error {
		var req serve.PredictRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return err
		}
		bags, err := req.BagList()
		for _, b := range bags {
			serve.CanonicalKey(b)
		}
		decoded[i] = bags
		return err
	}
	stage := func(name string, fn func(i int) error) error {
		start := time.Now()
		for i := range bodies {
			if err := fn(i); err != nil {
				return fmt.Errorf("%s replay: %w", name, err)
			}
		}
		res.values[name] = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(bodies))
		return nil
	}
	if err := stage("serve.wire_decode_us", decode); err != nil {
		return err
	}
	members := make([][][]dataset.Member, len(bodies))
	xs := make([][][]float64, len(bodies))
	byKey := map[string][]float64{}
	for key, bag := range r.stream.bags {
		if ref, ok := r.refs[key]; ok {
			byKey[serve.CanonicalKey(toWire(bag))] = ref.x
		}
	}
	for i, bags := range decoded {
		for _, b := range bags {
			ms := make([]dataset.Member, len(b))
			for j, m := range b {
				ms[j] = dataset.Member{Benchmark: m.Benchmark, Batch: m.Batch}
			}
			members[i] = append(members[i], ms)
			x, ok := byKey[serve.CanonicalKey(b)]
			if !ok {
				return fmt.Errorf("wire replay: no reference for %s", serve.CanonicalKey(b))
			}
			xs[i] = append(xs[i], x)
		}
	}
	if err := stage("vision.byname_us", func(i int) error {
		for _, b := range decoded[i] {
			for _, m := range b {
				if _, err := vision.ByName(m.Benchmark); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := stage("dataset.bagkey_us", func(i int) error {
		for _, b := range members[i] {
			dataset.BagKeyOf(b)
		}
		return nil
	}); err != nil {
		return err
	}
	preds := make([][]float64, len(bodies))
	if err := stage("core.predict_us", func(i int) error {
		preds[i] = preds[i][:0]
		for _, x := range xs[i] {
			p, err := r.model.PredictRaw(x)
			if err != nil {
				return err
			}
			preds[i] = append(preds[i], p)
		}
		return nil
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	return stage("serve.wire_encode_us", func(i int) error {
		out := serve.PredictResponse{ModelScheme: r.model.Scheme().Name}
		for j, b := range decoded[i] {
			br := serve.BagResult{Members: b, PredictedSec: preds[i][j], Cached: true}
			if len(b) == 2 {
				br.A, br.B = &b[0], &b[1]
			}
			out.Results = append(out.Results, br)
		}
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ") // the replica's writeJSON encoding
		return enc.Encode(out)
	})
}

// replayMisses times what a serve-tail miss runs — Generator.BagFeatures,
// and inside it the contended CPU co-run — on the first fresh bags the
// traced closed loop answered. The co-run is timed on a replay memo that
// already holds the bag's private-cache prefixes, as the generator's does.
func (r *serveRun) replayMisses(res *result, tr *tracer, answers []answer) error {
	seen := map[int]bool{}
	var bags [][]dataset.Member
	for _, a := range answers {
		if !seen[a.key] && len(bags) < tailReplayBags {
			seen[a.key] = true
			bags = append(bags, r.stream.bags[a.key])
		}
	}
	rp := newReplayer(r.gen.Config(), nil)
	rp.gen = r.gen
	for i, bag := range bags {
		if err := tr.timed("dataset.bag_features", uint64(i+1), 0, func() error {
			_, _, err := r.gen.BagFeatures(bag)
			return err
		}); err != nil {
			return err
		}
		_, runs, err := rp.canonical(bag, 0, 0)
		if err != nil {
			return err
		}
		if _, err := rp.sharedCPU("cpusim.shared", runs, 0, 0); err != nil { // fills the prefixes
			return err
		}
		rp.tr = tr
		_, err = rp.sharedCPU("cpusim.shared", runs, uint64(i+1), 0)
		rp.tr = nil
		if err != nil {
			return err
		}
	}
	res.values["dataset.bag_features_ms"] = tr.meanDuration("dataset.bag_features", time.Millisecond)
	res.values["cpusim.shared_ms"] = tr.meanDuration("cpusim.shared", time.Millisecond)
	return nil
}
