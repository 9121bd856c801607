package phasesum

// The co-run engine both simulators share: the phased departure schedule
// (Departures) and the fidelity-tier decision (CoRun). cpusim and gpusim
// supply only their steady-state evaluators — exact replay or the closed
// forms above — and their result types.

// Departures runs the phased completion schedule of a co-run: every active
// client progresses in proportion to its current steady-state rate; when
// the earliest finisher completes, the survivors are re-evaluated as a
// smaller client set. first is the full client set's steady state; time
// reads a result's whole-run time at that state's rates; next evaluates
// the steady state of the clients still active, in the order of active
// (ascending original indexes). active is the scheduler's own buffer,
// valid only during the call: next must neither keep nor modify it.
// Returns each client's completion time, indexed like first.
func Departures[R any](first []R, time func(*R) float64, next func(active []int) ([]R, error)) ([]float64, error) {
	n := len(first)
	remaining := make([]float64, n) // fraction of work left
	finish := make([]float64, n)
	active := make([]int, n)
	for i := range active {
		active[i] = i
		remaining[i] = 1
	}
	cur := first
	var clock float64
	for len(active) > 0 {
		// Earliest completion among active clients at current rates.
		best := -1
		bestDT := 0.0
		for k, ai := range active {
			dt := remaining[ai] * time(&cur[k])
			if best < 0 || dt < bestDT {
				best, bestDT = k, dt
			}
		}
		for k, ai := range active {
			if t := time(&cur[k]); t > 0 {
				remaining[ai] -= bestDT / t
			} else {
				remaining[ai] = 0
			}
		}
		clock += bestDT
		done := active[best]
		finish[done] = clock
		remaining[done] = 0
		active = append(active[:best], active[best+1:]...)
		if len(active) == 0 {
			break
		}
		var err error
		if cur, err = next(active); err != nil {
			return nil, err
		}
	}
	return finish, nil
}

// Gate is an analytic steady state's self-assessment: the model's combined
// confidence and, for when it sits under DefaultMinConfidence, the reason
// the mixed tier reports for falling back.
type Gate struct {
	Conf   float64
	Reason FallbackReason
}

// RunKind classifies which simulator answered a fidelity-tier co-run.
type RunKind struct {
	// UsedExact reports whether the exact simulator produced the result
	// (exact fidelity, single-client runs, and mixed-tier fallbacks).
	UsedExact bool
	// Fallback records, for mixed-tier fallbacks only, which gate bounced
	// the run; FallbackNone for analytic answers and for runs that were
	// exact by configuration.
	Fallback FallbackReason
}

// CoRun answers one co-run of n clients at tier fid and reports which
// simulator did. Exact fidelity and single-client runs delegate to exact
// unchanged. Otherwise analytic evaluates the full client set's steady
// state once: it is both the schedule's first step and the gate the mixed
// tier checks (the full set is the most contended, so its gate is the
// run's worst case). Mixed falls back to exact under
// DefaultMinConfidence; everything else completes the schedule from that
// steady state with phased.
func CoRun[R any](fid Fidelity, n int, exact func() ([]R, error), analytic func() ([]R, Gate, error), phased func(first []R) ([]R, error)) ([]R, RunKind, error) {
	fid = fid.Effective()
	if !fid.Analytic() || n == 1 {
		res, err := exact()
		return res, RunKind{UsedExact: true}, err
	}
	first, gate, err := analytic()
	if err != nil {
		return nil, RunKind{}, err
	}
	if fid == Mixed && gate.Conf < DefaultMinConfidence {
		res, err := exact()
		return res, RunKind{UsedExact: true, Fallback: gate.Reason}, err
	}
	res, err := phased(first)
	return res, RunKind{}, err
}
