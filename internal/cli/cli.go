// Package cli binds the generator flags the mapc commands share
// (mapc-datagen, mapc-train, mapc-predict, mapc-serve, mapc-experiments)
// and turns them into a dataset.Config. Each shared flag is registered,
// documented and validated here once; a command opts into the groups it
// takes and keeps only its own flags. Errors name the offending flag.
package cli

import (
	"flag"
	"fmt"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/phasesum"
	"mapc/internal/profiling"
	"mapc/internal/simcache"
)

// Group selects optional flag groups; -workers, -simcache-mb and
// -fidelity are always bound.
type Group uint

const (
	WithK        Group = 1 << iota // -k
	WithShares                     // -shares
	WithRegistry                   // -benchmarks, -batches
	WithScheme                     // -scheme
	WithProfile                    // -cpuprofile, -memprofile
)

// Flags holds the parsed values of the bound flags; k stays 0 when -k is
// not bound.
type Flags struct {
	workers, simCacheMB, k int
	fidelity, shares       string
	benchmarks, batches    string
	scheme                 string
	cpuProfile, memProfile string
}

// Bind registers the always-bound flags and the chosen groups on fs.
func Bind(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{scheme: core.SchemeFull.Name}
	fs.IntVar(&f.workers, "workers", 0, "measurement worker goroutines (0 = NumCPU, 1 = serial); output is identical for every value")
	fs.IntVar(&f.simCacheMB, "simcache-mb", dataset.DefaultSimCacheMB, "simulation memo budget in MiB (0 = off); output is identical at every budget")
	fs.StringVar(&f.fidelity, "fidelity", string(phasesum.Exact), "co-run fidelity tier: exact (cycle-level replay), mixed (analytic when confident, exact otherwise), fast (always analytic); isolated runs are exact at every tier")
	if groups&WithK != 0 {
		fs.IntVar(&f.k, "k", 2, "bag size: applications co-scheduled per bag (2 = the paper's pairs, up to 8); a loaded model pins its own")
	}
	if groups&WithShares != 0 {
		fs.StringVar(&f.shares, "shares", "", "MPS share profile for every shared GPU co-run: k slash- or comma-separated relative weights, e.g. 0.7/0.3 (empty = equal split)")
	}
	if groups&WithRegistry != 0 {
		fs.StringVar(&f.benchmarks, "benchmarks", "", "comma-separated benchmark subset for the corpus (empty = full Table-II suite)")
		fs.StringVar(&f.batches, "batches", "", "comma-separated corpus batch sizes (empty = 20,40,80,160,320)")
	}
	if groups&WithScheme != 0 {
		fs.StringVar(&f.scheme, "scheme", f.scheme, "feature scheme: insmix, insmix+cputime, insmix+cputime+fairness, full; a loaded model must match")
	}
	if groups&WithProfile != 0 {
		fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		fs.StringVar(&f.memProfile, "memprofile", "", "write a post-GC heap profile to this file on exit")
	}
	return f
}

// Config returns dataset.DefaultConfig with the bound flags applied. It
// rejects every value that is wrong on its face; checks that need the
// whole config stay with dataset.NewGenerator.
func (f *Flags) Config() (dataset.Config, error) {
	cfg := dataset.DefaultConfig()
	if err := CheckMB("simcache-mb", f.simCacheMB); err != nil {
		return cfg, err
	}
	cfg.Workers, cfg.SimCacheMB = f.workers, f.simCacheMB
	var err error
	if cfg.Fidelity, err = phasesum.ParseFidelity(f.fidelity); err != nil {
		return cfg, fmt.Errorf("-fidelity: %w", err)
	}
	cfg.K = f.k
	if f.shares != "" {
		if cfg.Shares, err = dataset.ParseShares(f.shares); err != nil {
			return cfg, fmt.Errorf("-shares: %w", err)
		}
		if f.k != 0 && len(cfg.Shares) != cfg.EffectiveK() {
			return cfg, fmt.Errorf("-shares: %d weights for -k %d", len(cfg.Shares), cfg.EffectiveK())
		}
	}
	if f.benchmarks != "" {
		if cfg.Benchmarks, err = dataset.ParseBenchmarks(f.benchmarks); err != nil {
			return cfg, fmt.Errorf("-benchmarks: %w", err)
		}
	}
	if f.batches != "" {
		if cfg.BatchSizes, err = dataset.ParseBatches(f.batches); err != nil {
			return cfg, fmt.Errorf("-batches: %w", err)
		}
	}
	return cfg, nil
}

// Scheme resolves -scheme (the full scheme when the group is not bound).
func (f *Flags) Scheme() (core.Scheme, error) {
	s, ok := core.SchemeByName(f.scheme)
	if !ok {
		return s, fmt.Errorf("-scheme: unknown scheme %q", f.scheme)
	}
	return s, nil
}

// StartProfile starts the -cpuprofile/-memprofile profiles; the returned
// stop writes them and must run before the command exits.
func (f *Flags) StartProfile() (stop func() error, err error) {
	return profiling.Start(f.cpuProfile, f.memProfile)
}

// CheckMB rejects a MiB budget flag that is negative or whose byte count
// overflows int64.
func CheckMB(name string, mb int) error {
	if mb < 0 || mb > simcache.MaxMB {
		return fmt.Errorf("-%s %d outside [0, %d] MiB", name, mb, simcache.MaxMB)
	}
	return nil
}
