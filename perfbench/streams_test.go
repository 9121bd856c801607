package main

import (
	"reflect"
	"sort"
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/serve"
)

func TestRegistryAndMultisets(t *testing.T) {
	reg := registry()
	if len(reg) != 45 {
		t.Fatalf("registry has %d members, want 45", len(reg))
	}
	for _, c := range []struct{ k, want int }{{2, 1035}, {3, 16215}} {
		ms := multisets(len(reg), c.k)
		if len(ms) != c.want {
			t.Errorf("multisets(45, %d) = %d, want %d", c.k, len(ms), c.want)
		}
		seen := map[[3]int]bool{}
		for _, m := range ms {
			var key [3]int
			copy(key[:], m)
			if !sort.IntsAreSorted(m) || seen[key] {
				t.Fatalf("multiset %v unsorted or repeated", m)
			}
			seen[key] = true
		}
	}
}

// sameMultiset reports whether the wire members are a permutation of bag.
func sameMultiset(ms []serve.Member, bag []dataset.Member) bool {
	return serve.CanonicalKey(ms) == serve.CanonicalKey(toWire(bag))
}

func TestHotStream(t *testing.T) {
	a, b := hotStream(3, 2, 2000), hotStream(3, 2, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve-hit streams")
	}
	if reflect.DeepEqual(a.bags, hotStream(4, 2, 2000).bags) {
		t.Error("different seeds gave the same hot set")
	}
	if len(a.bags) != hotSetSize {
		t.Fatalf("hot set has %d bags, want %d", len(a.bags), hotSetSize)
	}
	keys := map[string]bool{}
	for _, bag := range a.bags {
		keys[serve.CanonicalKey(toWire(bag))] = true
	}
	if len(keys) != hotSetSize {
		t.Errorf("hot set has %d distinct bags, want %d", len(keys), hotSetSize)
	}
	reordered := 0
	for _, r := range a.reqs {
		if !sameMultiset(r.bag, a.bags[r.key]) {
			t.Fatalf("request %v does not name hot bag %v", r.bag, a.bags[r.key])
		}
		if !reflect.DeepEqual(r.bag, toWire(a.bags[r.key])) {
			reordered++
		}
	}
	if reordered == 0 {
		t.Error("no request sent its members in a shuffled order")
	}
}

func TestTailStream(t *testing.T) {
	a := tailStream(5, 3)
	if !reflect.DeepEqual(a, tailStream(5, 3)) {
		t.Fatal("same seed gave different serve-tail streams")
	}
	if reflect.DeepEqual(a.reqs[:100], tailStream(6, 3).reqs[:100]) {
		t.Error("different seeds gave the same serve-tail stream")
	}
	if len(a.bags) != 16215 {
		t.Fatalf("stream walks %d fresh bags, want all 16215 multisets", len(a.bags))
	}
	keys := map[string]bool{}
	for _, bag := range a.bags {
		keys[serve.CanonicalKey(toWire(bag))] = true
	}
	if len(keys) != len(a.bags) {
		t.Fatalf("%d distinct fresh bags among %d", len(keys), len(a.bags))
	}
	fresh := 0
	seen := 0 // distinct bags sent so far
	for i, r := range a.reqs {
		if !sameMultiset(r.bag, a.bags[r.key]) {
			t.Fatalf("request %d names %v, not bag %d", i, r.bag, r.key)
		}
		if r.fresh {
			if r.key != seen {
				t.Fatalf("fresh request %d names bag %d, want the next unseen bag %d", i, r.key, seen)
			}
			fresh++
			seen++
			continue
		}
		if r.key >= seen || r.key < seen-tailRepeatWindow {
			t.Fatalf("repeat %d names bag %d, not one of the %d most recent of %d", i, r.key, tailRepeatWindow, seen)
		}
	}
	if !a.reqs[0].fresh {
		t.Error("the first request repeats a bag never sent")
	}
	// ~21,600 requests: the share's standard error is ~0.003.
	if share := float64(fresh) / float64(len(a.reqs)); share < tailFreshShare-0.01 || share > tailFreshShare+0.01 {
		t.Errorf("fresh share %.4f, want %.2f±0.01", share, tailFreshShare)
	}
}

func TestFastBag(t *testing.T) {
	reg := registry()
	if !reflect.DeepEqual(fastBag(reg, 9, 17, 4), fastBag(reg, 9, 17, 4)) {
		t.Fatal("fastBag is not a function of (seed, index)")
	}
	same := 0
	for i := 0; i < 100; i++ {
		if reflect.DeepEqual(fastBag(reg, 9, i, 4), fastBag(reg, 10, i, 4)) {
			same++
		}
	}
	if same > 1 {
		t.Errorf("%d of 100 bags equal across seeds", same)
	}
	count := map[dataset.Member]int{}
	for i := 0; i < 4500; i++ {
		for _, m := range fastBag(reg, 1, i, 4) {
			count[m]++
		}
	}
	if len(count) != len(reg) {
		t.Errorf("4500 bags drew %d distinct members, want all %d", len(count), len(reg))
	}
}
