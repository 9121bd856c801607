package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

// DefaultFeatureCacheMB bounds the cross-request feature cache. A cached
// bag costs ~(8*width + key) bytes, so even at k=8 (85 features, ~100-byte
// keys) 64 MiB holds ~80k distinct bags — far past any realistic hot set,
// while long-tail k-bag traffic (the keyspace is combinatorial in the
// benchmark registry) can no longer grow the map without bound.
const DefaultFeatureCacheMB = 64

// featureDomain namespaces feature-cache keys inside the shared
// simcache.Key space. Entries measured at the generator's configured tier
// live in featureDomain itself; any other tier (the brownout fast tier)
// gets featureDomain + "/" + tier, e.g. "serve/features/fast", so an
// analytic answer can never be returned to (or snapshotted for) a request
// at the configured tier.
const featureDomain = "serve/features"

// recoveredPanic is a panic caught inside the feature cache's compute
// path, converted to an error so a crashing measurement answers one 500
// instead of killing the server — and so the entry is never published
// rather than poisoned (see featureCache.get).
type recoveredPanic struct {
	Value any
	Stack []byte
}

func (p *recoveredPanic) Error() string {
	return fmt.Sprintf("serve: feature computation panicked: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes error panic values to errors.Is/As (mirrors
// parallel.PanicError).
func (p *recoveredPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// featureValue is one cached bag: its raw feature vector and fairness.
// Immutable once published (the simcache contract); PredictRaw copies
// before scaling, so sharing the slice across requests is safe.
type featureValue struct {
	x        []float64
	fairness float64
}

// sizeBytes is the caller-reported resident size charged against the LRU
// budget: the vector, the key string, and a fixed allowance for the entry
// bookkeeping (simcache entry + map cell + list links).
func (v *featureValue) sizeBytes(key string) int64 {
	return int64(8*len(v.x)) + int64(len(key)) + 128
}

// featureCache memoizes raw feature vectors per bag across requests, built
// on internal/simcache: a byte-bounded, LRU-evicting singleflight memo.
// Each bag's shared-CPU fairness simulation runs exactly once no matter
// how many concurrent requests ask for the same bag; when the resident
// bytes exceed the budget the least-recently-used bags are evicted (they
// cost re-simulation on next sight, never a wrong answer). The generator
// underneath additionally memoizes each member's isolated runs, so even a
// miss on a new combination of known members only pays for the shared run.
type featureCache struct {
	// compute measures a bag at a fidelity tier, stopped by ctx; the
	// generator's BagFeaturesFidelity.
	compute func(ctx context.Context, bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error)
	// tier is the generator's configured fidelity: the tier ordinary
	// requests ask for, and the only one peer fill, snapshots and warm
	// start carry.
	tier phasesum.Fidelity
	// canonical collapses every permutation of a bag's members into one
	// entry. Only safe when the generator's CanonicalOrder sorts members
	// itself, making BagFeatures permutation-invariant.
	canonical bool
	// fill, when set, is consulted on a miss before simulating: the peer
	// fill hook returns a bit-exact vector computed by another replica
	// (JSON float64 round-trips exactly), or ok=false to fall through to
	// the local simulation. It runs inside the singleflight slot, so
	// concurrent misses on one bag cost one peer probe.
	fill func(ctx context.Context, key string) (x []float64, fairness float64, ok bool)
	// shares qualifies every key with the generator's MPS share profile
	// (dataset Config.SharesLabel; "" for the equal split). Features are
	// share-independent today, but the share vector is generator state
	// that changes measured co-runs, so two profiles must never share a
	// cache namespace — the same reasoning that keeps other tiers' entries
	// out of the configured tier's domain.
	shares string

	lru *simcache.Cache
}

// newFeatureCache builds the cache over gen with a budget of budgetMB MiB
// (0 means DefaultFeatureCacheMB; New validates negatives before here).
func newFeatureCache(gen *dataset.Generator, budgetMB int) *featureCache {
	if budgetMB <= 0 {
		budgetMB = DefaultFeatureCacheMB
	}
	return &featureCache{
		compute:   gen.BagFeaturesFidelity,
		tier:      gen.Config().Fidelity.Effective(),
		canonical: gen.Config().CanonicalOrder,
		shares:    gen.Config().SharesLabel(),
		lru:       simcache.MustNew(int64(budgetMB) << 20),
	}
}

// newStubFeatureCache is the test constructor: an arbitrary compute
// function at a configured exact tier and an explicit byte budget, no
// generator required.
func newStubFeatureCache(compute func(ctx context.Context, bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error), canonical bool, budgetBytes int64) *featureCache {
	return &featureCache{compute: compute, tier: phasesum.Exact, canonical: canonical, lru: simcache.MustNew(budgetBytes)}
}

// key canonicalizes the bag when member order is irrelevant, returning the
// cache key and the member sequence to compute with.
func (c *featureCache) key(bag []dataset.Member) (string, []dataset.Member) {
	if c.canonical {
		s := append([]dataset.Member(nil), bag...)
		sort.Slice(s, func(i, j int) bool {
			if s[i].Benchmark != s[j].Benchmark {
				return s[i].Benchmark < s[j].Benchmark
			}
			return s[i].Batch < s[j].Batch
		})
		bag = s
	}
	return dataset.BagKeyOf(bag), bag
}

// shareDomain qualifies a cache domain with the share profile. The equal
// split keeps the bare domain, identical to the pre-shares key shape, so
// existing deployments see unchanged keys; any explicit profile gets its
// own namespace by exact string append — no hashing, so distinct profiles
// can never collide.
func shareDomain(base, shares string) string {
	if shares == "" {
		return base
	}
	return base + "?shares=" + shares
}

// cacheKey maps the canonical bag key at tier fid into the simcache key
// space: the tier's share-qualified domain plus the bag key in the Config
// field.
func (c *featureCache) cacheKey(bagKey string, fid phasesum.Fidelity) simcache.Key {
	domain := featureDomain
	if fid = fid.Effective(); fid != c.tier {
		domain += "/" + string(fid)
	}
	return simcache.Key{Domain: shareDomain(domain, c.shares), Config: bagKey}
}

// get returns the bag's raw feature vector and fairness at tier fid,
// computing them at most once per resident generation. hit reports whether
// a *published* entry answered immediately: a request that joined an
// in-progress first computation waited out a full simulation and must not
// claim "cached" (the pre-fix cache reported hit=true for those waiters).
// The returned slice is shared across requests — callers must not mutate
// it (core.Predictor.PredictRaw copies before scaling).
//
// A compute that panics must not poison the singleflight slot: the panic
// is recovered into a *recoveredPanic error, simcache never publishes
// errored entries, and the next request for the same bag computes fresh —
// the panicking bag costs exactly one 500 (plus the same error for any
// waiter that shared the slot).
// A request whose ctx ends stops alone: its waiters retry under their own
// contexts (simcache.Lookup), so it never fails a live request.
func (c *featureCache) get(ctx context.Context, bag []dataset.Member, fid phasesum.Fidelity) (x []float64, fairness float64, hit bool, err error) {
	k, canon := c.key(bag)
	v, outcome, err := c.lru.Lookup(ctx, c.cacheKey(k, fid), func() (any, int64, error) {
		fv, err := c.computeValue(ctx, k, canon, fid)
		if err != nil {
			return nil, 0, err
		}
		return fv, fv.sizeBytes(k), nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	fv := v.(*featureValue)
	return fv.x, fv.fairness, outcome == simcache.OutcomeHit, nil
}

// computeValue runs the miss path — peer fill first (configured tier
// only: peers publish nothing else), local simulation as the fallback —
// with panics recovered into *recoveredPanic.
func (c *featureCache) computeValue(ctx context.Context, key string, canon []dataset.Member, fid phasesum.Fidelity) (fv *featureValue, err error) {
	defer func() {
		if r := recover(); r != nil {
			fv, err = nil, &recoveredPanic{Value: r, Stack: debug.Stack()}
		}
	}()
	if c.fill != nil && fid.Effective() == c.tier {
		if x, fairness, ok := c.fill(ctx, key); ok {
			return &featureValue{x: x, fairness: fairness}, nil
		}
	}
	x, fairness, err := c.compute(ctx, canon, fid)
	if err != nil {
		return nil, err
	}
	return &featureValue{x: x, fairness: fairness}, nil
}

// peek returns the published entry for a canonical bag key without
// waiting, computing, or touching recency — the peer-fill serving side.
func (c *featureCache) peek(bagKey string) (*featureValue, bool) {
	v, ok := c.lru.Peek(c.cacheKey(bagKey, c.tier))
	if !ok {
		return nil, false
	}
	return v.(*featureValue), true
}

// seed publishes a precomputed entry (warm start); a live resident entry
// wins. Reports whether this call inserted a still-resident entry.
func (c *featureCache) seed(bagKey string, x []float64, fairness float64) bool {
	fv := &featureValue{x: x, fairness: fairness}
	return c.lru.Seed(c.cacheKey(bagKey, c.tier), fv, fv.sizeBytes(bagKey))
}

// entries lists the published configured-tier entries MRU-first (the
// snapshot body). Other tiers' entries are deliberately excluded:
// snapshots and peer fills must only ever carry configured-tier features.
func (c *featureCache) entries() []SnapshotEntry {
	var out []SnapshotEntry
	domain := c.cacheKey("", c.tier).Domain
	c.lru.Items(func(key simcache.Key, val any, _ int64) bool {
		if key.Domain != domain {
			return true
		}
		if fv, ok := val.(*featureValue); ok {
			out = append(out, SnapshotEntry{Key: key.Config, X: fv.x, Fairness: fv.fairness})
		}
		return true
	})
	return out
}

// Stats exposes the LRU counters (hits/misses/evictions/bytes/entries).
func (c *featureCache) Stats() simcache.Stats { return c.lru.Stats() }

// Len returns the number of cached bags (including in-flight entries).
func (c *featureCache) Len() int {
	return c.lru.Len()
}
