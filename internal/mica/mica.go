// Package mica reduces instrumented workloads to architecture-independent
// instruction-mix percentages — the role MICA 1.0 plays on top of PIN in the
// paper's feature-collection pipeline (Section V-C). The eight percentages
// correspond to rows 3-10 of Table IV.
package mica

import (
	"fmt"

	"mapc/internal/isa"
	"mapc/internal/trace"
)

// Mix is the instruction-mix report for one workload: the fraction (0..1)
// of dynamic instructions in each ISA category. Fractions sum to 1 for a
// non-empty workload.
type Mix [isa.NumCategories]float64

// Analyze computes the mix of a workload.
func Analyze(w *trace.Workload) (Mix, error) {
	if w == nil {
		return Mix{}, fmt.Errorf("mica: nil workload")
	}
	if err := w.Validate(); err != nil {
		return Mix{}, fmt.Errorf("mica: %w", err)
	}
	counts := w.TotalCounts()
	if counts.Total() == 0 {
		return Mix{}, fmt.Errorf("mica: workload %q has no instructions", w.Benchmark)
	}
	return Mix(counts.Mix()), nil
}

// Percent returns the percentage (0..100) for one category, the unit used
// in the paper's Table IV.
func (m Mix) Percent(c isa.Category) float64 { return m[c] * 100 }

// String renders the mix as "cat=pp.p%" pairs.
func (m Mix) String() string {
	out := ""
	for c := isa.Category(0); c < isa.NumCategories; c++ {
		if c > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%.1f%%", c, m.Percent(c))
	}
	return out
}
