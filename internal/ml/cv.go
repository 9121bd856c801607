package ml

import (
	"fmt"

	"mapc/internal/xrand"
)

// ModelFactory builds a fresh, unfitted model for each cross-validation
// fold, so folds never leak state through a shared model.
type ModelFactory func() Regressor

// KFold evaluates the model with k-fold cross-validation (shuffled
// deterministically by seed) and returns the per-fold mean relative errors.
func KFold(d *Dataset, k int, seed uint64, factory ModelFactory) ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if k < 2 || k > d.Len() {
		return nil, fmt.Errorf("ml: k=%d folds invalid for %d points", k, d.Len())
	}
	perm := xrand.New(seed).Perm(d.Len())
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	out := make([]float64, k)
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		model := factory()
		if err := model.Fit(d.Subset(trainIdx)); err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", f, err)
		}
		test := d.Subset(folds[f])
		pred, err := model.PredictAll(test.X)
		if err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", f, err)
		}
		mre, err := MeanRelativeError(test.Y, pred)
		if err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", f, err)
		}
		out[f] = mre
	}
	return out, nil
}

// HoldOut trains on an (1-testFraction) share and evaluates on the rest —
// the 80/20 protocol of Section V-D2. It returns the test mean relative
// error.
func HoldOut(d *Dataset, testFraction float64, seed uint64, factory ModelFactory) (float64, error) {
	train, test, err := d.Split(testFraction, seed)
	if err != nil {
		return 0, err
	}
	model := factory()
	if err := model.Fit(train); err != nil {
		return 0, err
	}
	pred, err := model.PredictAll(test.X)
	if err != nil {
		return 0, err
	}
	return MeanRelativeError(test.Y, pred)
}
