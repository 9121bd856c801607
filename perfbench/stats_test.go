package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.99, 3.97}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"disjoint children", []interval{{110, 120}, {150, 180}}, 60},
		{"overlapping children count once", []interval{{110, 160}, {140, 170}}, 40},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []interval{{50, 120}, {190, 250}}, 70},
		{"child outside the parent", []interval{{10, 90}, {200, 300}}, 100},
		{"child covering the parent", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWindowPerOp(t *testing.T) {
	w := window{cpu: 3000, mallocs: 30}
	if got := w.cpuUSPerOp(3); got != 1 {
		t.Errorf("cpuUSPerOp = %v, want 1", got)
	}
	if got := w.allocsPerOp(3); got != 10 {
		t.Errorf("allocsPerOp = %v, want 10", got)
	}
	if got := w.cpuUSPerOp(0); got != 0 {
		t.Errorf("cpuUSPerOp with no ops = %v, want 0", got)
	}
}

func TestWindows(t *testing.T) {
	at := []time.Duration{0, 5, 9, 10, 25, 30, -1}
	vals := []float64{1, 2, 3, 4, 5, 6, 7}
	ws := windows(at, vals, 10, 3)
	want := [][]float64{{1, 2, 3}, {4}, {5}}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("windows = %v, want %v (offsets past the last window or negative dropped)", ws, want)
	}
	if got := medianOver(ws, func(_ int, w []float64) float64 { return float64(len(w)) }); got != 1 {
		t.Errorf("median window size = %v, want 1", got)
	}
}

// TestClosedAndLatencyStats checks that one bad window — a stall — moves
// neither the median rate and CPU per op nor the median percentiles.
func TestClosedAndLatencyStats(t *testing.T) {
	const width = time.Second
	var at []time.Duration
	var lat []float64
	for w := 0; w < 5; w++ {
		n := 100
		if w == 2 {
			n = 10 // the stalled window completes little work, slowly
		}
		for i := 0; i < n; i++ {
			at = append(at, time.Duration(w)*width+time.Duration(i)*width/time.Duration(n))
			l := float64(i%10) + 1 // 1..10 ms
			if w == 2 {
				l *= 100
			}
			lat = append(lat, l)
		}
	}
	// 5 ms of CPU per window, except 50 ms in the stalled one.
	cpu := []time.Duration{0, 5e6, 10e6, 60e6, 65e6, 70e6}
	ops, cpuPerOp := closedStats(at, cpu, width)
	if ops != 100 {
		t.Errorf("ops/s = %v, want 100", ops)
	}
	if cpuPerOp != 50 {
		t.Errorf("CPU µs/op = %v, want 50", cpuPerOp)
	}
	p50, p99 := latencyStats(at, lat, width, 5)
	if p50 != 5.5 || math.Abs(p99-10) > 1e-9 {
		t.Errorf("p50, p99 = %v, %v; want 5.5, 10", p50, p99)
	}
}
