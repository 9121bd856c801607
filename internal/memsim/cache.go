// Package memsim provides the microarchitectural memory-system components
// shared by the CPU and GPU simulators: set-associative caches with LRU
// replacement, a TLB with flush support, and a synthetic address-stream
// generator that turns a trace.Phase's pattern/footprint/reuse descriptor
// into a concrete reference stream.
//
// These components replace the paper's physical memory hierarchies (Xeon
// LLC, T4 L2/TLB). Contention between concurrent applications emerges the
// same way it does in hardware: interleaved streams from different sources
// evict each other's lines from shared structures.
//
// The cache and TLB are the hottest code in the system — every corpus
// point, LOOCV fold and serving-cache miss funnels millions of references
// through them — so both are engineered for throughput under a strict
// bit-identity contract with their original implementations (see
// reference_test.go and the differential tests).
package memsim

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes used throughout the simulators.
const LineSize = 64

// line is one cache way. The metadata the way scan touches (tag, recency,
// validity, owner) is fused into a single struct so a set's ways occupy
// adjacent memory — one or two cache lines per simulated set instead of
// four strided slices.
type line struct {
	tag   uint64
	lru   uint64 // per-set logical clock; smallest in the set is the victim
	src   int32  // source that installed the line
	valid bool
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// per-source hit/miss statistics so shared caches can attribute interference
// to individual applications. The zero value is not usable; call NewCache.
type Cache struct {
	name     string
	sets     int
	ways     int
	setShift uint
	setMask  uint64
	// tagShift is bits.Len(sets-1), hoisted to construction time; the
	// original recomputed it on every access.
	tagShift uint
	// lines[set*ways+way] holds the fused way metadata; the valid bit is
	// tracked explicitly so tag 0 is usable.
	lines []line
	clock uint64

	stats []CacheStats // indexed by source id
}

// CacheStats accumulates per-source access results.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an idle source.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewCache builds a cache of totalBytes capacity and the given
// associativity, serving up to nSources distinct requestors.
func NewCache(name string, totalBytes int64, ways, nSources int) (*Cache, error) {
	if totalBytes <= 0 || ways <= 0 || nSources <= 0 {
		return nil, fmt.Errorf("memsim: invalid cache config %q (bytes=%d ways=%d sources=%d)",
			name, totalBytes, ways, nSources)
	}
	lines := totalBytes / LineSize
	if lines < int64(ways) {
		return nil, fmt.Errorf("memsim: cache %q too small for %d ways", name, ways)
	}
	sets := int(lines) / ways
	// Round sets down to a power of two for mask indexing.
	if sets&(sets-1) != 0 {
		sets = 1 << (bits.Len(uint(sets)) - 1)
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(LineSize))),
		setMask:  uint64(sets - 1),
		tagShift: uint(bits.Len(uint(sets - 1))),
		lines:    make([]line, sets*ways),
		stats:    make([]CacheStats, nSources),
	}
	return c, nil
}

// Access looks up addr on behalf of source, installing the line on a miss.
// It returns true on a hit.
func (c *Cache) Access(source int, addr uint64) bool {
	ln := addr >> c.setShift
	set := ln & c.setMask
	tag := ln >> c.tagShift
	base := int(set) * c.ways
	c.clock++
	c.stats[source].Accesses++

	ways := c.lines[base : base+c.ways : base+c.ways]
	lruWay, lruClock := 0, ^uint64(0)
	for w := range ways {
		l := &ways[w]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			return true
		}
		if l.lru < lruClock {
			lruClock = l.lru
			lruWay = w
		}
	}
	// Miss: install over the LRU way.
	c.stats[source].Misses++
	l := &ways[lruWay]
	l.tag = tag
	l.valid = true
	l.src = int32(source)
	l.lru = c.clock
	return false
}

// Stats returns the accumulated statistics for source.
func (c *Cache) Stats(source int) CacheStats { return c.stats[source] }

// Reset clears contents and statistics, keeping the geometry.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.stats)
	c.clock = 0
}
