// Package sched is the downstream system the paper's introduction
// motivates: an edge GPU server that receives offloaded vision jobs and
// must decide which ones to co-schedule under MPS. It drains a job queue
// through the GPU simulator under pluggable policies — serial FIFO, naive
// FIFO pairing, predictor-guided pairing (the paper's predictor deciding
// which jobs share the GPU), and an oracle that measures every candidate
// bag — and reports makespan and turnaround metrics, quantifying how much
// of the oracle's benefit the prediction recovers.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/gpusim"
	"mapc/internal/trace"
)

// Job is one offloaded application request.
type Job struct {
	// ID is the caller-assigned identifier (also the FIFO arrival order).
	ID int
	// Member names the application and batch size.
	Member dataset.Member
}

// Outcome records one job's completion in a schedule.
type Outcome struct {
	Job Job
	// Start and Finish are in seconds since the schedule began.
	Start, Finish float64
	// CoRan is the job it shared the GPU with, if any.
	CoRan *Job
}

// Schedule is the result of draining a queue under one policy.
type Schedule struct {
	Policy   string
	Outcomes []Outcome
	// Makespan is the completion time of the last job.
	Makespan float64
	// MeanTurnaround is the mean job completion time (all jobs arrive
	// at time zero).
	MeanTurnaround float64
	// Batches is the number of GPU launches (bags plus singles).
	Batches int
}

// Policy selects the next launch from the pending queue: one job index for
// a solo run or two for a co-scheduled bag. Indices refer to the pending
// slice passed in.
type Policy interface {
	Name() string
	Pick(s *Scheduler, pending []Job) ([]int, error)
}

// Scheduler drains job queues through the simulated GPU.
type Scheduler struct {
	gpu gpusim.Config
	gen *dataset.Generator
	// workloads caches each member's instrumented workload.
	workloads map[dataset.Member]*trace.Workload
	// bagTimes caches measured bag makespans for the oracle policy.
	bagTimes map[[2]dataset.Member]float64
	// predictor is set when a prediction-guided policy is used.
	predictor *core.Predictor
}

// New returns a scheduler running on the configuration's GPU, with the
// generator used for featurization (prediction-guided policies) and
// workload production.
func New(cfg dataset.Config, predictor *core.Predictor) (*Scheduler, error) {
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		gpu:       cfg.GPU,
		gen:       gen,
		workloads: map[dataset.Member]*trace.Workload{},
		bagTimes:  map[[2]dataset.Member]float64{},
		predictor: predictor,
	}, nil
}

// workload returns the cached instrumented workload for m.
func (s *Scheduler) workload(m dataset.Member) (*trace.Workload, error) {
	if w, ok := s.workloads[m]; ok {
		return w, nil
	}
	w, err := s.gen.Workload(m)
	if err != nil {
		return nil, err
	}
	s.workloads[m] = w
	return w, nil
}

// PredictBag returns the predictor's estimate for the bag (a, b).
func (s *Scheduler) PredictBag(a, b dataset.Member) (float64, error) {
	if s.predictor == nil {
		return 0, errors.New("sched: no predictor configured")
	}
	x, _, err := s.gen.BagFeatures([]dataset.Member{a, b})
	if err != nil {
		return 0, err
	}
	return s.predictor.PredictRaw(x)
}

// MeasureBag returns the simulated bag makespan for (a, b) — the oracle's
// information source, cached per pair.
func (s *Scheduler) MeasureBag(a, b dataset.Member) (float64, error) {
	key := [2]dataset.Member{a, b}
	if a.Benchmark > b.Benchmark || (a.Benchmark == b.Benchmark && a.Batch > b.Batch) {
		key = [2]dataset.Member{b, a}
	}
	if t, ok := s.bagTimes[key]; ok {
		return t, nil
	}
	wa, err := s.workload(a)
	if err != nil {
		return 0, err
	}
	wb, err := s.workload(b)
	if err != nil {
		return 0, err
	}
	res, err := gpusim.Run(s.gpu, []*trace.Workload{wa.Clone(), wb.Clone()})
	if err != nil {
		return 0, err
	}
	t := gpusim.BagTime(res)
	s.bagTimes[key] = t
	return t, nil
}

// Run drains the queue under the policy and returns the schedule.
func (s *Scheduler) Run(policy Policy, queue []Job) (*Schedule, error) {
	if policy == nil {
		return nil, errors.New("sched: nil policy")
	}
	if len(queue) == 0 {
		return nil, errors.New("sched: empty queue")
	}
	pending := append([]Job(nil), queue...)
	out := &Schedule{Policy: policy.Name()}
	var clock float64
	for len(pending) > 0 {
		pick, err := policy.Pick(s, pending)
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s: %w", policy.Name(), err)
		}
		if len(pick) < 1 || len(pick) > 2 {
			return nil, fmt.Errorf("sched: policy %s picked %d jobs", policy.Name(), len(pick))
		}
		if len(pick) == 2 && pick[0] == pick[1] {
			return nil, fmt.Errorf("sched: policy %s picked the same job twice", policy.Name())
		}
		for _, idx := range pick {
			if idx < 0 || idx >= len(pending) {
				return nil, fmt.Errorf("sched: policy %s picked index %d of %d", policy.Name(), idx, len(pending))
			}
		}

		jobs := make([]Job, len(pick))
		ws := make([]*trace.Workload, len(pick))
		for i, idx := range pick {
			jobs[i] = pending[idx]
			w, err := s.workload(pending[idx].Member)
			if err != nil {
				return nil, err
			}
			ws[i] = w.Clone()
		}
		res, err := gpusim.Run(s.gpu, ws)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			o := Outcome{Job: jobs[i], Start: clock, Finish: clock + res[i].TimeSec}
			if len(jobs) == 2 {
				co := jobs[1-i]
				o.CoRan = &co
			}
			out.Outcomes = append(out.Outcomes, o)
		}
		clock += gpusim.BagTime(res)
		out.Batches++

		// Remove the launched jobs (descending index order).
		sorted := append([]int(nil), pick...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		for _, idx := range sorted {
			pending = append(pending[:idx], pending[idx+1:]...)
		}
	}
	out.Makespan = clock
	var sum float64
	for _, o := range out.Outcomes {
		sum += o.Finish
	}
	out.MeanTurnaround = sum / float64(len(out.Outcomes))
	return out, nil
}
