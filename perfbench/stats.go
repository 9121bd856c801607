package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (R's type 7, numpy's default).
// xs need not be sorted; it is not modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached reports 0, never NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by the union of its
// children, each clipped to parent first. Overlapping children (concurrent
// forwards of one router request) are counted once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(math.MinInt64)
	for _, c := range cs {
		if c.start > curEnd {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
			curStart, curEnd = c.start, c.end
			continue
		}
		curEnd = max(curEnd, c.end)
	}
	if curEnd > curStart {
		covered += curEnd - curStart
	}
	return parent.end - parent.start - covered
}

// windowsPerPhase is how many equal windows a timed phase is split into.
// Rates, per-op costs and latency percentiles are computed per window and
// reported as the median over windows, so a stall of the shared machine
// that hits one window does not move the figure.
const windowsPerPhase = 5

// windows buckets vals by their offset at[i] from a phase's start into n
// windows of width, dropping samples outside them.
func windows(at []time.Duration, vals []float64, width time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for i, a := range at {
		if a >= 0 && a < width*time.Duration(n) {
			out[a/width] = append(out[a/width], vals[i])
		}
	}
	return out
}

// medianOver is the median over windows of f(i, window i).
func medianOver(ws [][]float64, f func(i int, w []float64) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(i, w)
	}
	return median(vs)
}

// cpuClock reads the process CPU time at start + i*width for i = 0..n
// from its own goroutine; the returned function waits for the readings.
func cpuClock(start time.Time, width time.Duration, n int) func() []time.Duration {
	ch := make(chan []time.Duration, 1)
	go func() {
		out := make([]time.Duration, n+1)
		for i := range out {
			time.Sleep(time.Until(start.Add(time.Duration(i) * width)))
			out[i] = processCPU()
		}
		ch <- out
	}()
	return func() []time.Duration { return <-ch }
}

// closedStats turns a closed loop's completion offsets and the CPU read at
// each window boundary into the median per-window throughput (ops/s) and
// CPU per op (µs).
func closedStats(at []time.Duration, cpu []time.Duration, width time.Duration) (opsPerS, cpuUSPerOp float64) {
	n := len(cpu) - 1
	ws := windows(at, make([]float64, len(at)), width, n)
	opsPerS = medianOver(ws, func(_ int, w []float64) float64 { return float64(len(w)) / width.Seconds() })
	cpuUSPerOp = medianOver(ws, func(i int, w []float64) float64 {
		return ratio(float64(cpu[i+1]-cpu[i])/float64(time.Microsecond), float64(len(w)))
	})
	return opsPerS, cpuUSPerOp
}

// latencyStats is the median over windows of each window's p50 and p99.
func latencyStats(at []time.Duration, latMS []float64, width time.Duration, n int) (p50, p99 float64) {
	ws := windows(at, latMS, width, n)
	p50 = medianOver(ws, func(_ int, w []float64) float64 { return quantile(w, 0.5) })
	p99 = medianOver(ws, func(_ int, w []float64) float64 { return quantile(w, 0.99) })
	return p50, p99
}

// durationsMS converts durations to float64 milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// procSnap is a point-in-time reading of the process counters the
// end-to-end metrics are built from.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user+system CPU of the whole process
	mallocs uint64        // cumulative heap allocations
	gcCPU   float64       // runtime estimate of GC CPU seconds
	allCPU  float64       // runtime estimate of all CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapshot() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return procSnap{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		gcCPU:   cpuSamples[0].Value.Float64(),
		allCPU:  cpuSamples[1].Value.Float64(),
	}
}

// window is the difference between two snapshots.
type window struct {
	wall, cpu     time.Duration
	mallocs       uint64
	gcCPU, allCPU float64
}

func since(a procSnap) window {
	b := snapshot()
	return window{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		gcCPU:   b.gcCPU - a.gcCPU,
		allCPU:  b.allCPU - a.allCPU,
	}
}

// add accumulates another window (corpus-exact sums per-corpus windows).
func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.gcCPU += o.gcCPU
	w.allCPU += o.allCPU
}

func (w window) cpuUSPerOp(ops int) float64 {
	return ratio(float64(w.cpu)/float64(time.Microsecond), float64(ops))
}

func (w window) allocsPerOp(ops int) float64 { return ratio(float64(w.mallocs), float64(ops)) }

func (w window) gcFrac() float64 { return ratio(w.gcCPU, w.allCPU) }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
