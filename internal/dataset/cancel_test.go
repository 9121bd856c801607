package dataset

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mapc/internal/phasesum"
)

// countdownCtx is a context whose Err turns to context.Canceled after a
// fixed number of Err calls: it cancels a measurement deterministically
// at its n-th cancellation check. The generator and the simulators poll
// Err only.
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

var cancelBag = []Member{{"fast", 20}, {"hog", 40}, {"knn", 20}}

// TestPreCancelledContext: the feature and per-point paths under an
// already-cancelled context return context.Canceled at every tier and
// simulate nothing — no simulation-memo miss, no published entry, no
// member measured.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Mixed, phasesum.Fast} {
		if _, _, err := gen.BagFeaturesFidelity(ctx, cancelBag, fid); !errors.Is(err, context.Canceled) {
			t.Fatalf("BagFeaturesFidelity(%s): err %v, want context.Canceled", fid, err)
		}
	}
	if _, err := gen.measurePoint(ctx, cancelBag); !errors.Is(err, context.Canceled) {
		t.Fatalf("measurePoint: err %v, want context.Canceled", err)
	}
	if st := gen.SimCacheStats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("a cancelled call simulated: %+v", st)
	}
	if n := len(gen.cache); n != 0 {
		t.Fatalf("a cancelled call measured %d member(s)", n)
	}
}

// TestCancelAtEveryCheckpoint cancels one bag's features, then its point,
// at the first, second, ... cancellation check — before a member
// measurement, an app's replay, the interleave or a departure — until the
// call completes. Every cancelled attempt returns context.Canceled; the
// first complete one is bit-identical to a fresh generator's uncancelled
// answer, so the member memo and the simulation memo hold only whole,
// correct entries after any cancel.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	ref, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantX, wantFair, err := ref.BagFeatures(cancelBag)
	if err != nil {
		t.Fatal(err)
	}
	wantPt, err := ref.MeasureBag(cancelBag)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		ctx := &countdownCtx{Context: context.Background(), left: n}
		x, fair, err := gen.BagFeaturesFidelity(ctx, cancelBag, gen.cfg.Fidelity)
		if errors.Is(err, context.Canceled) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x, wantX) || fair != wantFair {
			t.Fatalf("features completing after %d cancelled attempts diverge", n)
		}
		if n <= len(cancelBag) {
			t.Fatalf("features completed after only %d checks", n)
		}
		break
	}
	for n := 0; ; n++ {
		pt, err := gen.measurePoint(&countdownCtx{Context: context.Background(), left: n}, cancelBag)
		if errors.Is(err, context.Canceled) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt, wantPt) {
			t.Fatalf("point completing after %d cancelled attempts diverges", n)
		}
		break
	}
}
