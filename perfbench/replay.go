package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mapc/internal/cpusim"
	"mapc/internal/dataset"
	"mapc/internal/features"
	"mapc/internal/gpusim"
	"mapc/internal/mica"
	"mapc/internal/parallel"
	"mapc/internal/perfmon"
	"mapc/internal/simcache"
	mtrace "mapc/internal/trace"
	"mapc/internal/vision"
)

// The replays re-run a generator's steps through the simulators' public
// calls, with a span around each call, so the traced run can say which
// layer the time went to without a span inside the program.

// isoRun is one member's instrumented run and isolated simulations.
type isoRun struct {
	once sync.Once
	w    *mtrace.Workload
	mix  mica.Mix
	cpu  cpusim.Result
	gpu  gpusim.Result
	err  error
}

// replayer mirrors dataset.Generator's measurement steps for one config,
// with its own simulation memo of the same budget. With gen set, members
// come from gen's cached workloads and isolated times instead of being
// re-simulated, for replays that time only the contended co-runs.
type replayer struct {
	cfg  dataset.Config
	memo *simcache.Cache
	tr   *tracer
	gen  *dataset.Generator

	mu   sync.Mutex
	runs map[dataset.Member]*isoRun
}

func newReplayer(cfg dataset.Config, tr *tracer) *replayer {
	return &replayer{
		cfg:  cfg,
		memo: simcache.MustNew(int64(cfg.SimCacheMB) << 20),
		tr:   tr,
		runs: map[dataset.Member]*isoRun{},
	}
}

// member returns m's isolated measurement, computing it once.
func (r *replayer) member(m dataset.Member, trace, parent uint64) (*isoRun, error) {
	r.mu.Lock()
	e, ok := r.runs[m]
	if !ok {
		e = &isoRun{}
		r.runs[m] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.err = r.measure(e, m, trace, parent) })
	return e, e.err
}

func (r *replayer) measure(e *isoRun, m dataset.Member, trace, parent uint64) error {
	if r.gen != nil {
		var err error
		if e.w, err = r.gen.Workload(m); err != nil {
			return err
		}
		e.cpu.TimeSec, e.gpu.TimeSec, err = r.gen.IsolatedTimes(m)
		return err
	}
	err := r.tr.timed("vision.run", trace, parent, func() error {
		b, err := vision.ByName(m.Benchmark)
		if err != nil {
			return err
		}
		res, err := vision.Run(b, m.Batch, r.cfg.Seed)
		if err != nil {
			return err
		}
		e.w = res.Workload
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.tr.timed("mica.analyze", trace, parent, func() (err error) {
		e.mix, err = mica.Analyze(e.w)
		return err
	}); err != nil {
		return err
	}
	if err := r.tr.timed("cpusim.isolated", trace, parent, func() error {
		res, err := cpusim.RunMemo(r.cfg.CPU, r.memo, []cpusim.App{{Workload: e.w, Threads: r.cfg.Threads}})
		if err == nil {
			e.cpu = res[0]
		}
		return err
	}); err != nil {
		return err
	}
	return r.tr.timed("gpusim.isolated", trace, parent, func() error {
		res, err := gpusim.RunMemo(r.cfg.GPU, r.memo, []*mtrace.Workload{e.w})
		if err == nil {
			e.gpu = res[0]
		}
		return err
	})
}

// canonical resolves bag's members and sorts them the way the generator
// does under CanonicalOrder: heavier isolated CPU time first, ties by
// (benchmark, batch).
func (r *replayer) canonical(bag []dataset.Member, trace, parent uint64) ([]dataset.Member, []*isoRun, error) {
	type mm struct {
		m dataset.Member
		e *isoRun
	}
	ms := make([]mm, len(bag))
	for i, m := range bag {
		e, err := r.member(m, trace, parent)
		if err != nil {
			return nil, nil, fmt.Errorf("%v: %w", m, err)
		}
		ms[i] = mm{m, e}
	}
	if r.cfg.CanonicalOrder {
		sort.SliceStable(ms, func(i, j int) bool {
			a, b := ms[i], ms[j]
			if a.e.cpu.TimeSec != b.e.cpu.TimeSec {
				return a.e.cpu.TimeSec > b.e.cpu.TimeSec
			}
			if a.m.Benchmark != b.m.Benchmark {
				return a.m.Benchmark < b.m.Benchmark
			}
			return a.m.Batch < b.m.Batch
		})
	}
	members := make([]dataset.Member, len(ms))
	runs := make([]*isoRun, len(ms))
	for i := range ms {
		members[i], runs[i] = ms[i].m, ms[i].e
	}
	return members, runs, nil
}

// sharedCPU is the generator's contended CPU co-run at its fidelity.
func (r *replayer) sharedCPU(name string, runs []*isoRun, trace, parent uint64) ([]cpusim.Result, error) {
	apps := make([]cpusim.App, len(runs))
	for i, e := range runs {
		apps[i] = cpusim.App{Workload: e.w, Threads: r.cfg.Threads}
	}
	var res []cpusim.Result
	err := r.tr.timed(name, trace, parent, func() (err error) {
		res, _, err = cpusim.RunMemoFidelity(r.cfg.CPU, r.memo, apps, r.cfg.Fidelity)
		return err
	})
	return res, err
}

// sharedGPU is the generator's contended GPU co-run: the bag time.
func (r *replayer) sharedGPU(name string, runs []*isoRun, trace, parent uint64) (float64, error) {
	ws := make([]*mtrace.Workload, len(runs))
	for i, e := range runs {
		ws[i] = e.w
	}
	var y float64
	err := r.tr.timed(name, trace, parent, func() error {
		res, _, err := gpusim.RunMemoSharesFidelity(r.cfg.GPU, r.memo, ws, r.cfg.Shares, r.cfg.Fidelity)
		if err == nil {
			y = gpusim.BagTime(res)
		}
		return err
	})
	return y, err
}

// bag replays MeasureBag for one bag and returns its GPU bag time. The
// feature half (members, contended CPU run, fairness, vector) sits in a
// dataset.bag_features span, like Generator.BagFeatures.
func (r *replayer) bag(bag []dataset.Member, trace, parent uint64) (float64, error) {
	var runs []*isoRun
	err := r.tr.timed("dataset.bag_features", trace, parent, func() error {
		var err error
		if _, runs, err = r.canonical(bag, trace, parent); err != nil {
			return err
		}
		shared, err := r.sharedCPU("cpusim.shared", runs, trace, parent)
		if err != nil {
			return err
		}
		perf := make([]perfmon.AppPerf, len(runs))
		apps := make([]features.App, len(runs))
		for i, e := range runs {
			perf[i] = perfmon.AppPerf{IPCAlone: e.cpu.IPC, IPCShared: shared[i].IPC}
			apps[i] = features.App{CPUTimeSec: e.cpu.TimeSec, GPUTimeSec: e.gpu.TimeSec, Mix: e.mix}
		}
		fairness, err := perfmon.Fairness(perf)
		if err != nil {
			return err
		}
		fairness = min(fairness, 1)
		return r.tr.timed("features.bag_vector", trace, parent, func() error {
			_, err := features.BagVector(apps, fairness)
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	return r.sharedGPU("gpusim.shared", runs, trace, parent)
}

// corpus replays every bag on a pool of workers, one dataset.bag span
// per bag, and returns the bag times in bag order and the wall time.
func (r *replayer) corpus(bags [][]dataset.Member, workers int) ([]float64, time.Duration, error) {
	ys := make([]float64, len(bags))
	start := time.Now()
	err := parallel.ForEach(workers, len(bags), func(i int) error {
		s := r.tr.begin("dataset.bag", uint64(i+1), 0)
		y, err := r.bag(bags[i], s.Trace, s.ID)
		r.tr.end(s)
		ys[i] = y
		return err
	})
	return ys, time.Since(start), err
}
