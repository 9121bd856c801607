package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory and are written out once, when the run ends. A nil
// *tracer records nothing: the untraced runs that produce the end-to-end
// metrics never construct one and never install a traced wrapper.

// span is one timed call at a layer boundary. Spans of one request share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is monotonic nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span called name; end records it. Both are no-ops on a
// nil tracer.
func (t *tracer) begin(name string, trace, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{Trace: trace, ID: t.newID(), Parent: parent, Name: name, Start: t.now()}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.add(s)
}

// timed runs fn inside a span called name and returns fn's error.
func (t *tracer) timed(name string, trace, parent uint64, fn func() error) error {
	s := t.begin(name, trace, parent)
	err := fn()
	t.end(s)
	return err
}

// named returns a copy of every span called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanDuration is the mean duration of the spans called name, in unit.
func (t *tracer) meanDuration(name string, unit time.Duration) float64 {
	ss := t.named(name)
	var sum int64
	for _, s := range ss {
		sum += s.End - s.Start
	}
	return ratio(float64(sum)/float64(unit), float64(len(ss)))
}

// meanSelf is the mean self time of the spans called parent, minus the
// parts covered by their children called child, in unit.
func (t *tracer) meanSelf(parent, child string, unit time.Duration) float64 {
	kids := map[uint64][]interval{}
	for _, c := range t.named(child) {
		kids[c.Parent] = append(kids[c.Parent], c.interval())
	}
	ps := t.named(parent)
	var sum int64
	for _, p := range ps {
		sum += selfTime(p.interval(), kids[p.ID])
	}
	return ratio(float64(sum)/float64(unit), float64(len(ps)))
}

// busyFrac is the summed duration of the spans called name over wall x
// workers: the share of the worker pool's capacity spent inside them.
func (t *tracer) busyFrac(name string, wall time.Duration, workers int) float64 {
	var sum int64
	for _, s := range t.named(name) {
		sum += s.End - s.Start
	}
	return ratio(float64(sum), float64(wall)*float64(workers))
}

// write stores every span as one JSON object per line at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Trace propagation across HTTP hops. The load generator stamps each
// request with these headers; the router wrapper moves them into the
// request context; the tracing transport, passed to the router as its
// forward client, carries them on to the replica.
const (
	headerTrace  = "X-Bench-Trace"
	headerParent = "X-Bench-Parent"
)

type traceKey struct{}

// traceRef is the (trace, parent span) pair carried in a context.
type traceRef struct{ trace, parent uint64 }

func headerRef(h http.Header) traceRef {
	tr, _ := strconv.ParseUint(h.Get(headerTrace), 10, 64)
	pa, _ := strconv.ParseUint(h.Get(headerParent), 10, 64)
	return traceRef{tr, pa}
}

func (r traceRef) stamp(h http.Header) {
	h.Set(headerTrace, strconv.FormatUint(r.trace, 10))
	h.Set(headerParent, strconv.FormatUint(r.parent, 10))
}

// wrapHandler records a span called name around every request h serves,
// parented to the span named in the request headers. The span's own
// reference is put in the request context for the calls h makes.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := headerRef(r.Header)
		s := t.begin(name, ref.trace, ref.parent)
		ctx := context.WithValue(r.Context(), traceKey{}, traceRef{ref.trace, s.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.end(s)
	})
}

// tracingTransport is the router's forward client transport in traced
// runs. It wraps http.DefaultTransport — the transport the router uses
// when its Client is nil — so connection reuse matches the untraced runs.
// Each forward gets a span (from RoundTrip until the router closes the
// body), its trace reference is sent to the replica in headers, and the
// first maxBodies forwarded request bodies are kept for the wire replay.
type tracingTransport struct {
	t         *tracer
	base      http.RoundTripper
	maxBodies int

	mu     sync.Mutex
	bodies [][]byte
}

func newTracingTransport(t *tracer, maxBodies int) *tracingTransport {
	return &tracingTransport{t: t, base: http.DefaultTransport, maxBodies: maxBodies}
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(traceKey{}).(traceRef)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	s := tt.t.begin("cluster.forward", ref.trace, ref.parent)
	tt.keepBody(req)
	out := req.Clone(req.Context())
	traceRef{ref.trace, s.ID}.stamp(out.Header)
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.t.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.end(s) }}
	return resp, nil
}

func (tt *tracingTransport) keepBody(req *http.Request) {
	if req.GetBody == nil {
		return
	}
	tt.mu.Lock()
	full := len(tt.bodies) >= tt.maxBodies
	tt.mu.Unlock()
	if full {
		return
	}
	rc, err := req.GetBody()
	if err != nil {
		return
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return
	}
	tt.mu.Lock()
	if len(tt.bodies) < tt.maxBodies {
		tt.bodies = append(tt.bodies, b)
	}
	tt.mu.Unlock()
}

func (tt *tracingTransport) recorded() [][]byte {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return append([][]byte(nil), tt.bodies...)
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// spansPath is where a traced run writes its spans.
func spansPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
