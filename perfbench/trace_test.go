package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if err := tr.timed("x", 1, 0, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("timed on a nil tracer: ran=%v err=%v", ran, err)
	}
	tr.end(tr.begin("y", 1, 0))
}

func TestMeanSelfAndBusyFrac(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, Name: "p", Start: 0, End: 100})
	tr.add(span{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40})
	tr.add(span{ID: 3, Parent: 1, Name: "c", Start: 30, End: 60})
	tr.add(span{ID: 4, Name: "p", Start: 200, End: 260})
	tr.add(span{ID: 5, Parent: 4, Name: "c", Start: 210, End: 220})
	// Self times 50 and 50; the first parent's children overlap.
	if got := tr.meanSelf("p", "c", time.Nanosecond); got != 50 {
		t.Errorf("meanSelf = %v, want 50", got)
	}
	if got := tr.meanDuration("c", time.Nanosecond); got != 70.0/3 {
		t.Errorf("meanDuration = %v, want %v", got, 70.0/3)
	}
	// 160ns of "p" over 100ns x 2 workers.
	if got := tr.busyFrac("p", 100, 2); got != 0.8 {
		t.Errorf("busyFrac = %v, want 0.8", got)
	}
	if got := tr.meanDuration("absent", time.Nanosecond); got != 0 {
		t.Errorf("meanDuration of no spans = %v, want 0", got)
	}
}

// TestTracePropagation drives a stand-in router that forwards with the
// request's context through the tracing transport: the client, router,
// forward and replica spans must form one trace, each parented to the
// span that caused it.
func TestTracePropagation(t *testing.T) {
	tr := newTracer()
	replica := httptest.NewServer(tr.wrapHandler("serve.replica", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, "ok")
	})))
	defer replica.Close()
	tt := newTracingTransport(tr, 1)
	fwd := &http.Client{Transport: tt}
	router := httptest.NewServer(tr.wrapHandler("cluster.router", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 2; i++ {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, replica.URL, bytes.NewReader([]byte("body")))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := fwd.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})))
	defer router.Close()

	req, err := http.NewRequest(http.MethodPost, router.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.begin("bench.request", 0, 0)
	root.Trace = root.ID
	traceRef{root.Trace, root.ID}.stamp(req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tr.end(root)

	routers, fwds, reps := tr.named("cluster.router"), tr.named("cluster.forward"), tr.named("serve.replica")
	if len(routers) != 1 || len(fwds) != 2 || len(reps) != 2 {
		t.Fatalf("spans: %d router, %d forward, %d replica; want 1, 2, 2", len(routers), len(fwds), len(reps))
	}
	if routers[0].Trace != root.Trace || routers[0].Parent != root.ID {
		t.Errorf("router span %+v not parented to the client span %d", routers[0], root.ID)
	}
	fwdIDs := map[uint64]bool{}
	for _, f := range fwds {
		fwdIDs[f.ID] = true
		if f.Trace != root.Trace || f.Parent != routers[0].ID || f.End < f.Start {
			t.Errorf("forward span %+v not parented to the router span %d", f, routers[0].ID)
		}
	}
	for _, r := range reps {
		if r.Trace != root.Trace || !fwdIDs[r.Parent] {
			t.Errorf("replica span %+v not parented to a forward span", r)
		}
	}
	if got := tt.recorded(); len(got) != 1 || string(got[0]) != "body" {
		t.Errorf("recorded bodies %q, want the first forward's body only", got)
	}
}
