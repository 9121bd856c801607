package cpusim

import (
	"context"

	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// This file is the CPU side of the fast fidelity tier (see
// internal/phasesum): the contended co-run — the shared-LLC interleave
// that RunMemo replays reference-by-reference for every bag — is replaced
// by a closed-form capacity-sharing model over memoized per-phase reuse
// sketches of each app's LLC-bound stream. Isolated runs stay exact: they
// are both the summaries' source and the delta-correction anchors, so a
// fast-tier result degrades gracefully toward the exact one as contention
// vanishes.

// memoDomainSum caches the reuse sketch of one app's LLC-bound stream.
// Keyed by (config, workload, slot): the bound stream is the L2 miss
// stream, so it depends on the private cache geometry and the prefetcher.
const memoDomainSum = "cpusim/sum"

// summaryEntry is the memoized sketch; immutable once published.
type summaryEntry struct{ sum phasesum.Summary }

// privResultFor returns app w's private replay for slot ai through the
// memo (the same "cpusim/priv" entries the exact shared path uses; a nil
// memo computes it).
func privResultFor(cfg Config, memo *corunMemo, w *trace.Workload, ai int) (privResult, error) {
	v, err := memo.get(memoDomainPriv, w, ai, func() (any, int64, error) {
		l1, err := memsim.NewCache("l1", cfg.L1Bytes, cfg.L1Ways, 1)
		if err != nil {
			return nil, 0, err
		}
		l2, err := memsim.NewCache("l2", cfg.L2Bytes, cfg.L2Ways, 1)
		if err != nil {
			return nil, 0, err
		}
		count, maxPhase := 0, 0
		for pi := range w.Phases {
			if refs := w.Phases[pi].MemRefs(); refs > 0 {
				k := memsim.SampleRefs(refs)
				count += k
				if k > maxPhase {
					maxPhase = k
				}
			}
		}
		pr, err := privateReplay(cfg, w, ai, l1, l2, make([]uint64, maxPhase), make([]uint64, 0, count))
		if err != nil {
			return nil, 0, err
		}
		return pr, pr.bytes(), nil
	})
	if err != nil {
		return privResult{}, err
	}
	return v.(privResult), nil
}

// boundSummaryFor returns the memoized reuse sketch of app w's LLC-bound
// stream at slot ai. pr must be the matching privResult (its bound/ends
// are only read on a memo miss).
func boundSummaryFor(memo *corunMemo, w *trace.Workload, ai int, pr privResult) (phasesum.Summary, error) {
	v, err := memo.get(memoDomainSum, w, ai, func() (any, int64, error) {
		sum := phasesum.Summarize(pr.bound, pr.ends)
		return summaryEntry{sum: sum}, sum.Bytes(), nil
	})
	if err != nil {
		return phasesum.Summary{}, err
	}
	return v.(summaryEntry).sum, nil
}

// runSteadyAnalytic is the analytic counterpart of runSteady: exact
// private phases (memo hits), closed-form shared-LLC miss estimates, then
// the identical timing tail. Returns the model's gate: its combined
// confidence, whose only fallback reason is low confidence (the CPU model
// has no share partitioning or DRAM gate). An isolated app is computed
// exactly (confidence 1). ctx is checked before each app's private
// replay.
func runSteadyAnalytic(ctx context.Context, cfg Config, memo *corunMemo, apps []App) ([]Result, phasesum.Gate, error) {
	if len(apps) == 1 {
		res, err := runSteady(ctx, cfg, memo, apps)
		return res, phasesum.Gate{Conf: 1}, err
	}
	n := len(apps)
	mem := make([][]phaseMem, n)
	sums := make([][]phasesum.PhaseSum, n)
	rates := make([]int, n)
	privs := make([]privResult, n)
	isoMems := make([][]phaseMem, n)
	for ai := range apps {
		if err := ctx.Err(); err != nil {
			return nil, phasesum.Gate{}, err
		}
		w := apps[ai].Workload
		pr, err := privResultFor(cfg, memo, w, ai)
		if err != nil {
			return nil, phasesum.Gate{}, err
		}
		privs[ai] = pr
		sum, err := boundSummaryFor(memo, w, ai, pr)
		if err != nil {
			return nil, phasesum.Gate{}, err
		}
		sums[ai] = sum.Line
		rates[ai] = sum.TotalRefs
		// Exact isolated anchor (memoized whole-run iso, slot 0): the
		// model predicts contention's *delta* on top of it. Slot-0
		// streams differ from slot-ai ones only in seed/base, so the
		// anchor transfers; the residual is what the oracle bounds.
		isoMem, _, err := simulateMemory(ctx, cfg, memo, []App{{Workload: w, Threads: apps[ai].Threads}})
		if err != nil {
			return nil, phasesum.Gate{}, err
		}
		isoMems[ai] = isoMem[0]
	}

	shCfg := phasesum.SharedConfig{Capacity: float64(cfg.LLCytes) / memsim.LineSize}
	shared := phasesum.SharedMiss(sums, rates, shCfg)
	conf := phasesum.CombineConfidence(shared, sums)

	llcRates := make([]float64, n)
	for ai := range apps {
		iso := phasesum.SharedMiss([][]phasesum.PhaseSum{sums[ai]}, []int{rates[ai]}, shCfg)
		pm := make([]phaseMem, len(privs[ai].mem))
		var missSum, boundSum float64
		for pi := range pm {
			l2 := privs[ai].mem[pi].l2Miss
			pm[pi].l1Miss = privs[ai].mem[pi].l1Miss
			pm[pi].l2Miss = l2
			if l2 <= 0 {
				continue
			}
			// Anchor in bound-stream space: exact isolated LLC misses
			// per LLC access, shifted by the model's contention delta,
			// clamped into [0,1] (LLC misses are a subset of L2 misses).
			anchor := 0.0
			if isoL2 := isoMems[ai][pi].l2Miss; isoL2 > 0 {
				anchor = isoMems[ai][pi].llcMiss / isoL2
			}
			m := phasesum.Clamp01(anchor + shared[ai][pi].Miss - iso[0][pi].Miss)
			pm[pi].llcMiss = m * l2
			bound := float64(sums[ai][pi].Refs)
			missSum += m * bound
			boundSum += bound
		}
		mem[ai] = pm
		if boundSum > 0 {
			llcRates[ai] = missSum / boundSum
		}
	}
	gate := phasesum.Gate{Conf: conf, Reason: phasesum.FallbackLowConfidence}
	return steadyFromMem(cfg, apps, mem, llcRates), gate, nil
}

// RunMemoFidelity is RunMemo with a fidelity tier, decided by
// phasesum.CoRun: exact fidelity (and every single-app run) delegates to
// RunMemo unchanged — bit-identical to the legacy path; fast estimates
// every contended co-run analytically; mixed does so only while the
// model's confidence clears phasesum.DefaultMinConfidence. The returned
// RunKind reports which simulator answered.
func RunMemoFidelity(cfg Config, memo *simcache.Cache, apps []App, fid phasesum.Fidelity) ([]Result, phasesum.RunKind, error) {
	return RunMemoFidelityContext(context.Background(), cfg, memo, apps, fid)
}

// RunMemoFidelityContext is RunMemoFidelity stopped by ctx: between units
// of work — each app's private replay, the shared-LLC interleave, each
// departure of the phased schedule — it returns ctx.Err() unwrapped.
// Memoized computations already started run to completion, so a cancelled
// call publishes only whole, correct memo entries.
func RunMemoFidelityContext(ctx context.Context, cfg Config, memo *simcache.Cache, apps []App, fid phasesum.Fidelity) ([]Result, phasesum.RunKind, error) {
	if err := validateApps(cfg, apps); err != nil {
		return nil, phasesum.RunKind{}, err
	}
	m := newCorunMemo(memo, cfg, apps)
	return phasesum.CoRun(fid, len(apps),
		func() ([]Result, error) { return runMemo(ctx, cfg, m, apps) },
		func() ([]Result, phasesum.Gate, error) { return runSteadyAnalytic(ctx, cfg, m, apps) },
		func(steady []Result) ([]Result, error) {
			return phased(ctx, cfg, apps, steady, func(sub []App) ([]Result, error) {
				r, _, err := runSteadyAnalytic(ctx, cfg, m, sub)
				return r, err
			})
		})
}
