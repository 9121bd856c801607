package gpusim

import (
	"fmt"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// keyBag returns a k-client bag alternating memory- and compute-bound
// kernels with a skewed share profile (the first client takes half the
// pool). From k = 4 on, the last slot repeats the first client's
// *trace.Workload, so one co-run carries the same pointer twice.
func keyBag(k int) ([]*trace.Workload, []float64) {
	ws := make([]*trace.Workload, k)
	shares := make([]float64, k)
	for i := range ws {
		ws[i] = memKernel(fmt.Sprintf("m%d", i))
		if i%2 == 1 {
			ws[i] = computeKernel(fmt.Sprintf("c%d", i))
		}
		shares[i] = 0.5 / float64(k-1)
	}
	shares[0] = 0.5
	if k >= 4 {
		ws[k-1] = ws[0]
	}
	return ws, shares
}

// TestMemoKeysWarmMatchCold: fast and mixed co-runs on a shared memo —
// cold, then fully warm — are bit-identical to the nil-memo run, and the
// warm repeat misses nowhere.
func TestMemoKeysWarmMatchCold(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []int{2, 4, 8} {
		for _, fid := range []phasesum.Fidelity{phasesum.Fast, phasesum.Mixed} {
			t.Run(fmt.Sprintf("k%d/%s", k, fid), func(t *testing.T) {
				ws, shares := keyBag(k)
				want, wantKind, err := RunMemoSharesFidelity(cfg, nil, ws, shares, fid)
				if err != nil {
					t.Fatal(err)
				}
				memo := simcache.MustNew(256 << 20)
				for pass := 0; pass < 2; pass++ {
					before := memo.Stats()
					got, kind, err := RunMemoSharesFidelity(cfg, memo, ws, shares, fid)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) || kind != wantKind {
						t.Fatalf("pass %d: memoized run diverges from the nil-memo run\nwant %+v %+v\ngot  %+v %+v", pass, wantKind, want, kind, got)
					}
					if after := memo.Stats(); pass == 1 && after.Misses != before.Misses {
						t.Fatalf("warm repeat missed the memo %d times", after.Misses-before.Misses)
					}
				}
			})
		}
	}
}

// TestMemoKeysMissAfterWorkloadMutation: a workload changed between two
// calls on one memo is re-fingerprinted by the second call, so it misses
// and answers exactly what a cold run of the changed bag answers.
func TestMemoKeysMissAfterWorkloadMutation(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			ws, shares := keyBag(k)
			memo := simcache.MustNew(256 << 20)
			before, _, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Fast)
			if err != nil {
				t.Fatal(err)
			}
			ws[0].Phases[0].Footprint /= 64
			misses := memo.Stats().Misses
			got, _, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Fast)
			if err != nil {
				t.Fatal(err)
			}
			if memo.Stats().Misses == misses {
				t.Fatal("changed workload hit the memo entries of its old content")
			}
			want, _, err := RunMemoSharesFidelity(cfg, nil, ws, shares, phasesum.Fast)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("changed workload: memoized %+v, cold %+v", got, want)
			}
			if reflect.DeepEqual(got, before) {
				t.Fatal("the mutation did not change the result; the test proves nothing")
			}
		})
	}
}

// TestMemoKeySetStats pins the memo's key set: a fixed call sequence
// leaves hit and miss counts equal to the ones recorded when every lookup
// built its own key. A key that gained, lost or changed a component moves
// these counts.
func TestMemoKeySetStats(t *testing.T) {
	cfg := DefaultConfig()
	memo := simcache.MustNew(256 << 20)
	for _, k := range []int{2, 4, 8} {
		ws, shares := keyBag(k)
		for i := 0; i < 2; i++ {
			if _, _, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Fast); err != nil {
				t.Fatal(err)
			}
		}
	}
	ws, _ := keyBag(2)
	if _, err := RunMemo(cfg, memo, ws); err != nil {
		t.Fatal(err)
	}
	st := memo.Stats()
	if st.Hits != wantKeyHits || st.Misses != wantKeyMisses {
		t.Fatalf("memo stats hits=%d misses=%d, want hits=%d misses=%d", st.Hits, st.Misses, wantKeyHits, wantKeyMisses)
	}
}

const wantKeyHits, wantKeyMisses = 164, 60

// BenchmarkCoRunFast times one warm fast-tier 4-client co-run: every memo
// lookup hits, so what remains is keying, the closed forms and the
// departure schedule. The sub-benchmark names the simulator, which keeps
// the gated benchmark names unique across packages.
func BenchmarkCoRunFast(b *testing.B) {
	b.Run("gpusim", func(b *testing.B) {
		cfg := DefaultConfig()
		ws, shares := keyBag(4)
		memo := simcache.MustNew(256 << 20)
		if _, _, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Fast); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := RunMemoSharesFidelity(cfg, memo, ws, shares, phasesum.Fast); err != nil {
				b.Fatal(err)
			}
		}
	})
}
