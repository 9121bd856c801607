package memsim

import (
	"testing"

	"mapc/internal/trace"
	"mapc/internal/xrand"
)

// Differential tests: drive millions of randomized accesses through the
// optimized structures and their retained pre-optimization references
// (reference_test.go) in lockstep, failing on the first diverging hit/miss
// outcome. Because a single wrong victim choice immediately skews every
// subsequent hit/miss result on a shared structure, per-access outcome
// equality over millions of eviction-heavy references is a proof of
// identical replacement sequences; the final full-state comparison makes
// the victim identity explicit entry by entry.

// tlbStateEqual asserts the fast TLB's full entry state matches the
// reference's: same valid slots, same (page, source) contents, and a
// recency order consistent with the reference's logical clocks.
func tlbStateEqual(t *testing.T, step int, fast *TLB, ref *refTLB) {
	t.Helper()
	for i := 0; i < fast.entries; i++ {
		valid := i < fast.nextFree
		if valid != ref.valid[i] {
			t.Fatalf("step %d: slot %d valid=%v, reference %v", step, i, valid, ref.valid[i])
		}
		if !valid {
			continue
		}
		page := fast.slots[i].key / fast.nSources
		src := int(fast.slots[i].key % fast.nSources)
		if page != ref.pages[i] || src != ref.srcs[i] {
			t.Fatalf("step %d: slot %d holds (page=%d src=%d), reference (page=%d src=%d)",
				step, i, page, src, ref.pages[i], ref.srcs[i])
		}
	}
	if fast.index.len() != fast.nextFree {
		t.Fatalf("step %d: index has %d keys, %d valid slots", step, fast.index.len(), fast.nextFree)
	}
	// Walking LRU -> MRU must visit strictly increasing reference clocks.
	last := uint64(0)
	seen := 0
	for i := fast.head; i >= 0; i = fast.slots[i].next {
		if ref.lru[i] <= last {
			t.Fatalf("step %d: recency list out of order at slot %d (clock %d after %d)",
				step, i, ref.lru[i], last)
		}
		last = ref.lru[i]
		seen++
	}
	if seen != fast.nextFree {
		t.Fatalf("step %d: recency list has %d slots, want %d", step, seen, fast.nextFree)
	}
}

func TestTLBDifferential(t *testing.T) {
	configs := []struct {
		name             string
		entries, sources int
		pages            uint64 // page pool; > entries forces evictions
		accesses         int
	}{
		{"small-evict-heavy", 48, 3, 160, 400_000},
		{"t4-geometry", 512, 4, 1400, 500_000},
		{"single-source", 64, 1, 200, 300_000},
	}
	totalAccesses := 0
	for _, cc := range configs {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			fast, err := NewTLB(cc.entries, cc.sources)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefTLB(cc.entries, cc.sources)
			rng := xrand.New(uint64(cc.entries)*7919 + uint64(cc.sources))
			for i := 0; i < cc.accesses; i++ {
				switch r := rng.Uint64() % 10000; {
				case r == 0:
					// Rare full reset (statistics included).
					fast.Reset()
					ref.Reset()
				case r < 12:
					// MPS context-boundary flush.
					fast.Flush()
					ref.Flush()
				}
				src := rng.Intn(cc.sources)
				addr := (rng.Uint64()%cc.pages)*PageSize + rng.Uint64()%PageSize
				fh := fast.Access(src, addr)
				rh := ref.Access(src, addr)
				if fh != rh {
					t.Fatalf("access %d (src=%d addr=%#x): fast=%v reference=%v", i, src, addr, fh, rh)
				}
				if i%100_000 == 0 {
					tlbStateEqual(t, i, fast, ref)
				}
			}
			tlbStateEqual(t, cc.accesses, fast, ref)
			for s := 0; s < cc.sources; s++ {
				if fast.Stats(s) != ref.Stats(s) {
					t.Errorf("source %d stats: fast %+v, reference %+v", s, fast.Stats(s), ref.Stats(s))
				}
			}
			if fast.flushes != ref.flushes {
				t.Errorf("flushes: fast %d, reference %d", fast.flushes, ref.flushes)
			}
		})
		totalAccesses += cc.accesses
	}
	if totalAccesses < 1_000_000 {
		t.Fatalf("differential coverage shrank to %d accesses; keep it >= 1M", totalAccesses)
	}
}

// cacheStateEqual asserts every way of every set matches the reference
// exactly: tag, validity, owning source, and recency clock. Equal lru
// clocks entry-by-entry mean both implementations chose the same victim on
// every installation since the last reset.
func cacheStateEqual(t *testing.T, step int, fast *Cache, ref *refCache) {
	t.Helper()
	if fast.clock != ref.clock {
		t.Fatalf("step %d: clock fast=%d reference=%d", step, fast.clock, ref.clock)
	}
	for i := range fast.lines {
		l := &fast.lines[i]
		if l.valid != ref.valid[i] || (l.valid && (l.tag != ref.tags[i] || int(l.src) != ref.src[i] || l.lru != ref.lru[i])) {
			t.Fatalf("step %d: line %d fast={tag:%#x src:%d lru:%d valid:%v} reference={tag:%#x src:%d lru:%d valid:%v}",
				step, i, l.tag, l.src, l.lru, l.valid, ref.tags[i], ref.src[i], ref.lru[i], ref.valid[i])
		}
	}
}

func TestCacheDifferential(t *testing.T) {
	configs := []struct {
		name     string
		bytes    int64
		ways     int
		sources  int
		lines    uint64 // line pool; > capacity forces evictions
		accesses int
	}{
		{"llc-like", 64 << 10, 11, 2, 3000, 400_000},
		{"l2-like-4src", 128 << 10, 16, 4, 5000, 400_000},
		{"direct-pressure", 8 << 10, 2, 3, 400, 300_000},
	}
	totalAccesses := 0
	for _, cc := range configs {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			fast, err := NewCache("diff", cc.bytes, cc.ways, cc.sources)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(cc.bytes, cc.ways, cc.sources)
			if fast.sets != ref.sets {
				t.Fatalf("geometry mismatch: fast %d sets, reference %d", fast.sets, ref.sets)
			}
			rng := xrand.New(uint64(cc.bytes) + uint64(cc.ways))
			for i := 0; i < cc.accesses; i++ {
				src := rng.Intn(cc.sources)
				addr := (rng.Uint64()%cc.lines)*LineSize + rng.Uint64()%LineSize
				switch r := rng.Uint64() % 10000; {
				case r == 0:
					fast.Reset()
					ref.Reset()
				case r < 400:
					// Prefetch-fill path: mutates state, returns nothing.
					fast.Install(src, addr)
					ref.Install(src, addr)
					continue
				}
				fh := fast.Access(src, addr)
				rh := ref.Access(src, addr)
				if fh != rh {
					t.Fatalf("access %d (src=%d addr=%#x): fast=%v reference=%v", i, src, addr, fh, rh)
				}
				if i%100_000 == 0 {
					cacheStateEqual(t, i, fast, ref)
				}
			}
			cacheStateEqual(t, cc.accesses, fast, ref)
			for s := 0; s < cc.sources; s++ {
				if fast.Stats(s) != ref.Stats(s) {
					t.Errorf("source %d stats: fast %+v, reference %+v", s, fast.Stats(s), ref.Stats(s))
				}
			}
		})
		totalAccesses += cc.accesses
	}
	if totalAccesses < 1_000_000 {
		t.Fatalf("differential coverage shrank to %d accesses; keep it >= 1M", totalAccesses)
	}
}

// TestStreamFillMatchesNext pins Fill's contract: batched generation draws
// exactly the same reference sequence as repeated Next calls.
func TestStreamFillMatchesNext(t *testing.T) {
	for _, pat := range []trace.Pattern{trace.Sequential, trace.Strided, trace.Windowed, trace.Random} {
		p := benchPhase(pat)
		a, err := NewStream(p, 1<<40, 99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewStream(p, 1<<40, 99)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]uint64, 4096)
		a.Fill(batch)
		for i, want := range batch {
			if got := b.Next(); got != want {
				t.Fatalf("pattern %d ref %d: Fill=%#x Next=%#x", pat, i, want, got)
			}
		}
	}
}
