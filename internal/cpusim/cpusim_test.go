package cpusim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mapc/internal/isa"
	"mapc/internal/trace"
)

// synthWorkload builds a deterministic workload with the given per-phase
// instruction volume and memory behaviour.
func synthWorkload(name string, instr uint64, memFrac float64, pattern trace.Pattern, footprint int64, par int) *trace.Workload {
	var counts isa.Counts
	mem := uint64(float64(instr) * memFrac)
	counts.Add(isa.MEM, mem)
	counts.Add(isa.ALU, (instr-mem)/2)
	counts.Add(isa.FP, instr-mem-(instr-mem)/2)
	return &trace.Workload{
		Benchmark: name,
		BatchSize: 1,
		Phases: []trace.Phase{{
			Name: "main", Counts: counts, Footprint: footprint,
			Pattern: pattern, StrideBytes: 64, Reuse: 0.2,
			Parallelism: par, VectorWidth: 1,
		}},
	}
}

func computeBound(name string) *trace.Workload {
	return synthWorkload(name, 50_000_000, 0.05, trace.Sequential, 64<<10, 1<<20)
}

func memoryBound(name string) *trace.Workload {
	return synthWorkload(name, 50_000_000, 0.6, trace.Random, 256<<20, 1<<20)
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.L1Bytes = 0 },
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.MLP = 0 },
		func(c *Config) { c.Throughput[isa.ALU] = 0 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run(cfg, nil); err == nil {
		t.Error("empty app list accepted")
	}
	if _, err := Run(cfg, []App{{Workload: nil, Threads: 1}}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(cfg, []App{{Workload: computeBound("x"), Threads: 0}}); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestSingleRunBasics(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, []App{{Workload: computeBound("a"), Threads: 8}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.TimeSec <= 0 || r.Cycles <= 0 {
		t.Fatalf("non-positive time: %+v", r)
	}
	if r.IPC <= 0 {
		t.Fatalf("non-positive IPC: %+v", r)
	}
	if r.Instructions != computeBound("a").Instructions() {
		t.Errorf("instructions %d", r.Instructions)
	}
	if p := r.Performance(); p <= 0 {
		t.Errorf("performance %v", p)
	}
}

func TestMoreWorkTakesLonger(t *testing.T) {
	cfg := DefaultConfig()
	small := synthWorkload("s", 10_000_000, 0.3, trace.Sequential, 1<<20, 1<<20)
	big := synthWorkload("b", 100_000_000, 0.3, trace.Sequential, 1<<20, 1<<20)
	rs, err := Run(cfg, []App{{Workload: small, Threads: 8}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(cfg, []App{{Workload: big, Threads: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rb[0].TimeSec <= rs[0].TimeSec {
		t.Fatalf("10x instructions not slower: %v vs %v", rb[0].TimeSec, rs[0].TimeSec)
	}
}

func TestMoreThreadsFaster(t *testing.T) {
	cfg := DefaultConfig()
	w := computeBound("p")
	r1, err := Run(cfg, []App{{Workload: w.Clone(), Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(cfg, []App{{Workload: w.Clone(), Threads: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if r8[0].TimeSec >= r1[0].TimeSec {
		t.Fatalf("8 threads (%v) not faster than 1 (%v)", r8[0].TimeSec, r1[0].TimeSec)
	}
}

func TestParallelismCapsThreads(t *testing.T) {
	cfg := DefaultConfig()
	serial := synthWorkload("serial", 50_000_000, 0.1, trace.Sequential, 1<<20, 1)
	r1, err := Run(cfg, []App{{Workload: serial.Clone(), Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Run(cfg, []App{{Workload: serial.Clone(), Threads: 16}})
	if err != nil {
		t.Fatal(err)
	}
	// A serial workload cannot speed up with threads.
	if r16[0].TimeSec < r1[0].TimeSec*0.99 {
		t.Fatalf("serial workload sped up with threads: %v -> %v", r1[0].TimeSec, r16[0].TimeSec)
	}
}

func TestCoRunNeverFasterThanAlone(t *testing.T) {
	cfg := DefaultConfig()
	for _, mk := range []func(string) *trace.Workload{computeBound, memoryBound} {
		alone, err := Run(cfg, []App{{Workload: mk("a"), Threads: 16}})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Run(cfg, []App{
			{Workload: mk("a"), Threads: 16},
			{Workload: mk("b"), Threads: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		if shared[0].TimeSec < alone[0].TimeSec*0.999 {
			t.Errorf("co-run completion (%v) beat isolated run (%v)",
				shared[0].TimeSec, alone[0].TimeSec)
		}
	}
}

func TestMemoryContentionSlowsMemoryBound(t *testing.T) {
	cfg := DefaultConfig()
	alone, err := Run(cfg, []App{{Workload: memoryBound("m1"), Threads: 16}})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, []App{
		{Workload: memoryBound("m1"), Threads: 16},
		{Workload: memoryBound("m2"), Threads: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared[0].TimeSec <= alone[0].TimeSec*1.02 {
		t.Fatalf("two memory-bound co-runners show no contention: %v vs %v",
			shared[0].TimeSec, alone[0].TimeSec)
	}
}

func TestSharedIPCNotHigherThanAlone(t *testing.T) {
	cfg := DefaultConfig()
	alone, err := Run(cfg, []App{{Workload: memoryBound("m"), Threads: 16}})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, []App{
		{Workload: memoryBound("m"), Threads: 16},
		{Workload: memoryBound("n"), Threads: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared[0].IPC > alone[0].IPC*1.001 {
		t.Fatalf("shared IPC %v exceeds isolated IPC %v", shared[0].IPC, alone[0].IPC)
	}
}

func TestPhasedCoRunAsymmetry(t *testing.T) {
	// A short job co-run with a long one: the long job's completion must
	// be below twice its isolated time (it runs alone after the short
	// job exits), and the short job must finish well before the long one.
	cfg := DefaultConfig()
	short := synthWorkload("short", 5_000_000, 0.5, trace.Random, 64<<20, 1<<20)
	long := synthWorkload("long", 200_000_000, 0.5, trace.Random, 64<<20, 1<<20)
	aloneLong, err := Run(cfg, []App{{Workload: long.Clone(), Threads: 16}})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, []App{
		{Workload: short.Clone(), Threads: 16},
		{Workload: long.Clone(), Threads: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared[0].TimeSec >= shared[1].TimeSec {
		t.Fatalf("short job (%v) did not finish before long job (%v)",
			shared[0].TimeSec, shared[1].TimeSec)
	}
	if shared[1].TimeSec > aloneLong[0].TimeSec*1.5 {
		t.Fatalf("long job slowed %vx by a brief co-runner",
			shared[1].TimeSec/aloneLong[0].TimeSec)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	apps := []App{
		{Workload: memoryBound("a"), Threads: 16},
		{Workload: computeBound("b"), Threads: 16},
	}
	r1, err := Run(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].TimeSec != r2[i].TimeSec || r1[i].IPC != r2[i].IPC {
			t.Fatalf("run %d not deterministic", i)
		}
	}
}

func TestPhaseBreakdown(t *testing.T) {
	cfg := DefaultConfig()
	apps := []App{{Workload: memoryBound("m"), Threads: 16}}
	bd, err := PhaseBreakdown(cfg, apps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) != len(apps[0].Workload.Phases) {
		t.Fatalf("breakdown phases %d", len(bd))
	}
	for i, p := range bd {
		if p.TotalCycles <= 0 {
			t.Errorf("phase %d total cycles %v", i, p.TotalCycles)
		}
		if p.EffectiveThreads < 1 || p.EffectiveThreads > 16 {
			t.Errorf("phase %d effective threads %v", i, p.EffectiveThreads)
		}
		if p.L1MissRate < 0 || p.L1MissRate > 1 ||
			p.LLCMissRate < 0 || p.LLCMissRate > 1 {
			t.Errorf("phase %d miss rates out of range: %+v", i, p)
		}
	}
	if _, err := PhaseBreakdown(cfg, apps, 3); err == nil {
		t.Error("out-of-range app accepted")
	}
}

func TestPrefetchingSpeedsStreamingWorkloads(t *testing.T) {
	// A sequential streaming workload must get faster with the stride
	// prefetcher enabled; a random-access one must not benefit much.
	stream := synthWorkload("stream", 50_000_000, 0.5, trace.Sequential, 128<<20, 1<<20)
	random := synthWorkload("rand", 50_000_000, 0.5, trace.Random, 128<<20, 1<<20)
	run := func(w *trace.Workload, degree int) float64 {
		cfg := DefaultConfig()
		cfg.PrefetchDegree = degree
		r, err := Run(cfg, []App{{Workload: w.Clone(), Threads: 16}})
		if err != nil {
			t.Fatal(err)
		}
		return r[0].TimeSec
	}
	sOff, sOn := run(stream, 0), run(stream, 4)
	if sOn >= sOff*0.95 {
		t.Errorf("prefetching did not speed a streaming workload: %v -> %v", sOff, sOn)
	}
	rOff, rOn := run(random, 0), run(random, 4)
	if rOn < rOff*0.8 {
		t.Errorf("random workload implausibly sped up by prefetching: %v -> %v", rOff, rOn)
	}
}

// TestConfigRejectsNonFinite sets each float field of the config — every
// Throughput element included — to NaN, +Inf and -Inf in turn: Validate
// must reject each case with an error naming the field. The cases are
// found by reflection, so a float field added without a check fails here.
func TestConfigRejectsNonFinite(t *testing.T) {
	type floatField struct {
		name string
		v    func(*Config) reflect.Value
	}
	var fields []floatField
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Type.Kind() == reflect.Float64:
			fields = append(fields, floatField{f.Name, func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem().Field(i) }})
		case f.Type.Kind() == reflect.Array && f.Type.Elem().Kind() == reflect.Float64:
			for j := 0; j < f.Type.Len(); j++ {
				fields = append(fields, floatField{"throughput for " + isa.Category(j).String(),
					func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem().Field(i).Index(j) }})
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, f := range fields {
			cfg := DefaultConfig()
			f.v(&cfg).SetFloat(bad)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate returned %v, want an error naming %s", f.name, bad, err, f.name)
			}
		}
	}
}
