package ml

import (
	"math"
	"testing"

	"mapc/internal/xrand"
)

func TestLinearRegressionRecoversExactLine(t *testing.T) {
	// y = 3*x0 - 2*x1 + 5, noiseless.
	d := &Dataset{}
	rng := xrand.New(11)
	for i := 0; i < 40; i++ {
		x0, x1 := rng.Float64()*10, rng.Float64()*10
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, 3*x0-2*x1+5)
	}
	m := NewLinearRegression()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	w, b := m.weights, m.bias
	if math.Abs(w[0]-3) > 1e-6 || math.Abs(w[1]+2) > 1e-6 || math.Abs(b-5) > 1e-5 {
		t.Fatalf("recovered w=%v b=%v", w, b)
	}
	pred, err := m.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-6) > 1e-5 {
		t.Fatalf("f(1,1) = %v, want 6", pred)
	}
}

func TestLinearRegressionCollinearFeatures(t *testing.T) {
	// x1 = 2*x0 exactly: pure OLS is singular; the ridge jitter must
	// still produce a usable model.
	d := &Dataset{}
	rng := xrand.New(13)
	for i := 0; i < 30; i++ {
		x := rng.Float64() * 10
		d.X = append(d.X, []float64{x, 2 * x})
		d.Y = append(d.Y, 4*x+1)
	}
	m := NewLinearRegression()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict([]float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-9) > 1e-3 {
		t.Fatalf("collinear prediction %v, want 9", pred)
	}
}

func TestLinearRegressionRidge(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{1}, {2}, {3}, {4}},
		Y: []float64{2, 4, 6, 8},
	}
	m := &LinearRegression{Ridge: 1000} // heavy shrinkage
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if w := m.weights[0]; w >= 2 {
		t.Fatalf("ridge did not shrink slope: %v", w)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	m := NewLinearRegression()
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("unfitted Predict succeeded")
	}
	if err := m.Fit(&Dataset{}); err == nil {
		t.Error("empty dataset accepted")
	}
	d := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1, 2}}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong-width vector accepted")
	}
}

func TestSolveGauss(t *testing.T) {
	// 2x + y = 5; x - y = 1  ->  x=2, y=1.
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := solveGauss(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solution %v", x)
	}
	// Singular system must be rejected.
	if _, err := solveGauss([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); err == nil {
		t.Error("singular system solved")
	}
}
