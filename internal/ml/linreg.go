package ml

import (
	"errors"
	"fmt"
	"math"
)

// LinearRegression is ordinary least squares fitted by solving the normal
// equations (Section II-B1). A small ridge term keeps the system solvable
// when features are collinear — which the paper notes they are, motivating
// its choice of trees over linear models.
type LinearRegression struct {
	// Ridge is the L2 regularization strength added to the diagonal of
	// the normal matrix; 0 requests pure OLS with a tiny numerical jitter
	// fallback.
	Ridge float64

	weights []float64 // per-feature coefficients
	bias    float64
	fitted  bool
}

// NewLinearRegression returns an unregularized OLS model.
func NewLinearRegression() *LinearRegression { return &LinearRegression{} }

// Fit estimates weights and bias on the dataset.
func (m *LinearRegression) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	n := d.Len()
	p := len(d.X[0])

	// Augmented design: p features plus an intercept column.
	dim := p + 1
	ata := make([][]float64, dim)
	for i := range ata {
		ata[i] = make([]float64, dim)
	}
	atb := make([]float64, dim)
	row := make([]float64, dim)
	for k := 0; k < n; k++ {
		copy(row, d.X[k])
		row[p] = 1
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				ata[i][j] += row[i] * row[j]
			}
			atb[i] += row[i] * d.Y[k]
		}
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
	}
	ridge := m.Ridge
	if ridge <= 0 {
		ridge = 1e-9
	}
	for i := 0; i < p; i++ { // do not penalize the intercept
		ata[i][i] += ridge
	}

	sol, err := solveGauss(ata, atb)
	if err != nil {
		return fmt.Errorf("ml: linear regression: %w", err)
	}
	m.weights = sol[:p]
	m.bias = sol[p]
	m.fitted = true
	return nil
}

// Predict evaluates the linear model at x.
func (m *LinearRegression) Predict(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errors.New("ml: linear regression not fitted")
	}
	if len(x) != len(m.weights) {
		return 0, fmt.Errorf("ml: feature vector width %d, model expects %d", len(x), len(m.weights))
	}
	y := m.bias
	for i, w := range m.weights {
		y += w * x[i]
	}
	return y, nil
}

// PredictAll predicts every row of X.
func (m *LinearRegression) PredictAll(X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	for i, x := range X {
		v, err := m.Predict(x)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// solveGauss solves Ax=b by Gaussian elimination with partial pivoting.
// A and b are modified in place.
func solveGauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-14 {
			return nil, errors.New("singular normal matrix")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}
