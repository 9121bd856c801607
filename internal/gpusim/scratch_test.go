package gpusim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"mapc/internal/trace"
)

// TestSimulateMemoryScratchReuse proves the pooled interleaving arena is
// invisible: repeated calls with different client counts (forcing the
// arena to be re-partitioned and partially overwritten) return identical
// results, serially and from concurrent goroutines (run under -race in
// CI). This is the safety net for the allocation-free fast path — a stale
// byte leaking across calls would diverge these results immediately.
func TestSimulateMemoryScratchReuse(t *testing.T) {
	cfg := DefaultConfig()
	solo := []*trace.Workload{memKernel("a")}
	trio := []*trace.Workload{memKernel("a"), computeKernel("b"), memKernel("c")}

	type out struct {
		mem      [][]phaseMem
		l2, tlbs interface{}
	}
	measure := func(ws []*trace.Workload) out {
		mem, l2, tlbs, err := simulateMemory(context.Background(), cfg, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		return out{mem, l2, tlbs}
	}
	wantSolo := measure(solo)
	wantTrio := measure(trio)
	if reflect.DeepEqual(wantSolo.mem[0], wantTrio.mem[0]) {
		t.Fatal("contended and isolated runs coincide; contention model is inert")
	}
	for i := 0; i < 3; i++ {
		if got := measure(trio); !reflect.DeepEqual(got, wantTrio) {
			t.Fatalf("iteration %d: trio results drifted after scratch reuse", i)
		}
		if got := measure(solo); !reflect.DeepEqual(got, wantSolo) {
			t.Fatalf("iteration %d: solo results drifted after scratch reuse", i)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var want, got out
				if (g+i)%2 == 0 {
					want, got = wantSolo, measure(solo)
				} else {
					want, got = wantTrio, measure(trio)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d iter %d: concurrent scratch reuse corrupted results", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
