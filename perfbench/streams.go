package main

import (
	"math/rand"

	"mapc/internal/dataset"
	"mapc/internal/serve"
	"mapc/internal/vision"
)

// Seeded inputs. Every stream is a pure function of the workload seed:
// the program under test only ever sees the generated requests and bags.

// registry is the 45-member space the workloads draw from: every Table-II
// benchmark at every default batch size.
func registry() []dataset.Member {
	var ms []dataset.Member
	for _, n := range vision.Names() {
		for _, b := range dataset.DefaultBatchSizes {
			ms = append(ms, dataset.Member{Benchmark: n, Batch: b})
		}
	}
	return ms
}

// multisets enumerates every size-k multiset of {0..n-1} as a
// non-decreasing index tuple, in lexicographic order.
func multisets(n, k int) [][]int {
	var out [][]int
	cur := make([]int, k)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := from; i < n; i++ {
			cur[pos] = i
			rec(pos+1, i)
		}
	}
	rec(0, 0)
	return out
}

// request is one /v1/predict call: the bag as sent (members in request
// order) and which distinct bag it names.
type request struct {
	bag   []serve.Member
	key   int // index into the stream's distinct bags
	fresh bool
}

// stream is a request sequence over a list of distinct bags.
type stream struct {
	bags [][]dataset.Member // distinct bags, first-seen order
	reqs []request
}

// toWire converts a bag to the wire members, in order.
func toWire(bag []dataset.Member) []serve.Member {
	out := make([]serve.Member, len(bag))
	for i, m := range bag {
		out[i] = serve.Member{Benchmark: m.Benchmark, Batch: m.Batch}
	}
	return out
}

// permuted returns bag's members in an order drawn from rng.
func permuted(rng *rand.Rand, bag []dataset.Member) []serve.Member {
	out := make([]serve.Member, len(bag))
	for i, j := range rng.Perm(len(bag)) {
		out[i] = serve.Member{Benchmark: bag[j].Benchmark, Batch: bag[j].Batch}
	}
	return out
}

func pick(reg []dataset.Member, idx []int) []dataset.Member {
	bag := make([]dataset.Member, len(idx))
	for i, x := range idx {
		bag[i] = reg[x]
	}
	return bag
}

// hotSetSize is serve-hit's working set: few enough bags that every
// request after warm-up is a feature-cache hit.
const hotSetSize = 8

// hotStream draws hotSetSize distinct k-bags and n requests over them,
// each naming a uniformly chosen hot bag with its members shuffled.
func hotStream(seed int64, k, n int) stream {
	rng := rand.New(rand.NewSource(seed))
	reg := registry()
	all := multisets(len(reg), k)
	var s stream
	for _, i := range rng.Perm(len(all))[:hotSetSize] {
		s.bags = append(s.bags, pick(reg, all[i]))
	}
	s.reqs = make([]request, n)
	for i := range s.reqs {
		key := rng.Intn(hotSetSize)
		s.reqs[i] = request{bag: permuted(rng, s.bags[key]), key: key}
	}
	return s
}

// Tail traffic shape: tailFreshShare of requests name a bag never sent
// before; the rest repeat (with shuffled members) one of the
// tailRepeatWindow most recent distinct bags, so a repeat may land while
// its first request is still being computed (a singleflight wait).
const (
	tailFreshShare   = 0.75
	tailRepeatWindow = 4
)

// tailStream walks a seeded shuffle of every size-k multiset of the
// registry (16,215 at k=3) and interleaves repeats, until the fresh bags
// run out.
func tailStream(seed int64, k int) stream {
	rng := rand.New(rand.NewSource(seed))
	reg := registry()
	all := multisets(len(reg), k)
	order := rng.Perm(len(all))
	var s stream
	for len(order) > 0 {
		if len(s.bags) > 0 && rng.Float64() >= tailFreshShare {
			lo := max(0, len(s.bags)-tailRepeatWindow)
			key := lo + rng.Intn(len(s.bags)-lo)
			s.reqs = append(s.reqs, request{bag: permuted(rng, s.bags[key]), key: key})
			continue
		}
		bag := pick(reg, all[order[0]])
		order = order[1:]
		s.bags = append(s.bags, bag)
		key := len(s.bags) - 1
		s.reqs = append(s.reqs, request{bag: permuted(rng, bag), key: key, fresh: true})
	}
	return s
}

// splitmix64 is a tiny seeded hash; fastBag uses it so any worker can
// derive bag i directly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fastBag is bags-fast's i-th bag: k members drawn uniformly (with
// replacement) from the registry, in drawn order.
func fastBag(reg []dataset.Member, seed int64, i, k int) []dataset.Member {
	h := splitmix64(uint64(seed)) ^ uint64(i)*0xd1342543de82ef95
	bag := make([]dataset.Member, k)
	for j := range bag {
		h = splitmix64(h)
		bag[j] = reg[h%uint64(len(reg))]
	}
	return bag
}
