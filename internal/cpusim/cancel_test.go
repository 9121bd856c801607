package cpusim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

// countdownCtx is a context whose Err turns to context.Canceled after a
// fixed number of Err calls: it cancels a run deterministically at its
// n-th cancellation check. The simulators poll Err only.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestPreCancelledContext: a co-run under an already-cancelled context
// returns context.Canceled at every tier, with or without a memo, and
// computes nothing — no memo miss, no published entry.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	for _, k := range []int{1, 2, 4} {
		for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Mixed, phasesum.Fast} {
			apps := keyBag(k)
			memo := simcache.MustNew(64 << 20)
			for _, m := range []*simcache.Cache{nil, memo} {
				if _, _, err := RunMemoFidelityContext(ctx, cfg, m, apps, fid); !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d %s memo=%v: err %v, want context.Canceled", k, fid, m != nil, err)
				}
			}
			if st := memo.Stats(); st.Misses != 0 || st.Entries != 0 {
				t.Fatalf("k=%d %s: a cancelled run computed into the memo: %+v", k, fid, st)
			}
		}
	}
}

// TestCancelAtEveryCheckpoint cancels the same co-run at its first,
// second, ... cancellation check until it completes. Every cancelled
// attempt returns context.Canceled; the first complete one, on the memo
// the cancelled attempts filled, is bit-identical to the cold uncancelled
// run — a cancel leaves only whole, correct entries behind.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
		t.Run(fmt.Sprint(fid), func(t *testing.T) {
			apps := keyBag(4)
			want, wantKind, err := RunMemoFidelity(cfg, nil, apps, fid)
			if err != nil {
				t.Fatal(err)
			}
			memo := simcache.MustNew(256 << 20)
			for n := 0; ; n++ {
				if n > 1000 {
					t.Fatal("run never completed")
				}
				got, kind, err := RunMemoFidelityContext(&countdownCtx{Context: context.Background(), left: n}, cfg, memo, apps, fid)
				if errors.Is(err, context.Canceled) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || kind != wantKind {
					t.Fatalf("run completing after %d cancelled attempts diverges\nwant %+v\ngot  %+v", n, want, got)
				}
				// One check per app before its replay, one before the
				// interleave, one per departure: more than k in all.
				if n <= len(apps) {
					t.Fatalf("run completed after only %d checks", n)
				}
				return
			}
		})
	}
}
