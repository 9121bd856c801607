package mica

import (
	"math"
	"strings"
	"testing"

	"mapc/internal/isa"
	"mapc/internal/trace"
)

func workloadWith(counts isa.Counts) *trace.Workload {
	return &trace.Workload{
		Benchmark: "w", BatchSize: 1,
		Phases: []trace.Phase{{
			Name: "p", Counts: counts, Parallelism: 1, VectorWidth: 1,
		}},
	}
}

func TestAnalyze(t *testing.T) {
	var c isa.Counts
	c.Add(isa.ALU, 50)
	c.Add(isa.MEM, 30)
	c.Add(isa.FP, 20)
	mix, err := Analyze(workloadWith(c))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mix[isa.ALU]-0.5) > 1e-12 {
		t.Errorf("ALU fraction %v", mix[isa.ALU])
	}
	if math.Abs(mix.Percent(isa.MEM)-30) > 1e-12 {
		t.Errorf("MEM percent %v", mix.Percent(isa.MEM))
	}
	var sum float64
	for c := isa.Category(0); c < isa.NumCategories; c++ {
		sum += mix[c]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestAnalyzeMultiPhaseAggregates(t *testing.T) {
	var a, b isa.Counts
	a.Add(isa.ALU, 10)
	b.Add(isa.MEM, 30)
	w := workloadWith(a)
	w.Phases = append(w.Phases, trace.Phase{
		Name: "p2", Counts: b, Parallelism: 1, VectorWidth: 1,
	})
	mix, err := Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mix[isa.MEM]-0.75) > 1e-12 {
		t.Errorf("aggregated MEM fraction %v", mix[isa.MEM])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Analyze(&trace.Workload{}); err == nil {
		t.Error("invalid workload accepted")
	}
	if _, err := Analyze(workloadWith(isa.Counts{})); err == nil {
		t.Error("zero-instruction workload accepted")
	}
}

func TestMixString(t *testing.T) {
	var c isa.Counts
	c.Add(isa.SSE, 1)
	mix, err := Analyze(workloadWith(c))
	if err != nil {
		t.Fatal(err)
	}
	if s := mix.String(); !strings.Contains(s, "sse=100.0%") {
		t.Errorf("String() = %q", s)
	}
}
