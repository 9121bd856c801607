package mapc

import (
	"mapc/internal/features"
	"mapc/internal/vision"
)

// FeatureKinds returns the Table-IV feature-kind vocabulary used to build
// custom schemes: "cpu_time", "gpu_time", the eight instruction-mix
// categories ("sse", "alu", "mem", "fp", "stack", "string", "shift",
// "control"), and "fairness".
func FeatureKinds() []string { return features.KindNames() }

// FeatureNames returns the full replicated feature-column names for a bag
// of nApps applications, matching Corpus.FeatureNames for nApps == 2.
func FeatureNames(nApps int) ([]string, error) { return features.Names(nApps) }

// Benchmarks returns the canonical benchmark names (Table II).
func Benchmarks() []string { return vision.Names() }
