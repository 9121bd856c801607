package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mapc/internal/dataset"
)

// This file is the service's wire format, exported so the cluster router
// (internal/cluster) and the load generator (cmd/mapc-loadgen) speak
// exactly the structures the server decodes — one schema, three users.

// Resilience headers shared by router, serve, and loadgen.
const (
	// HeaderDeadline carries the caller's remaining time budget in integer
	// milliseconds. The router stamps it on every forward from the
	// per-attempt context; serve honors it (capped by its own
	// RequestTimeout) instead of the static default. A duration rather
	// than an absolute timestamp so clock skew between tiers is harmless.
	HeaderDeadline = "X-Mapc-Deadline"
	// HeaderDegradedOK on a request tells serve the client prefers a fast
	// possibly-degraded answer over waiting for the exact tier: admission
	// routes it straight to the analytic fast path.
	HeaderDegradedOK = "X-Mapc-Degraded-OK"
	// HeaderDegraded is set ("1") on responses answered from the degraded
	// fast tier, mirroring the body's "degraded" field so load generators
	// can count brownouts without parsing JSON.
	HeaderDegraded = "X-Mapc-Degraded"
)

// Member is one application instance in the wire format.
type Member struct {
	Benchmark string `json:"benchmark"`
	Batch     int    `json:"batch"`
}

func (m Member) member() dataset.Member {
	return dataset.Member{Benchmark: m.Benchmark, Batch: m.Batch}
}

// Bag is one entry of a batched request: a k-member {"members":[…]} list.
type Bag struct {
	Members []Member `json:"members,omitempty"`
}

// PredictRequest carries one inline bag ({"bag":[…]}), a batch
// ({"bags":[{"members":[…]},…]}), or both; inline bags run first.
type PredictRequest struct {
	Bag  []Member `json:"bag,omitempty"`
	Bags []Bag    `json:"bags,omitempty"`
}

// requestForms names the accepted request shapes in 400 bodies.
const requestForms = `a request is {"bag":[…]} and/or {"bags":[{"members":[…]}]}`

// DecodeRequest reads exactly one PredictRequest JSON object from r, the
// decode both the server and the cluster router run. Unknown fields —
// among them the retired pair form {"a":…,"b":…} — and trailing data
// after the object ({…}{…}, {…}garbage) are errors.
func DecodeRequest(r io.Reader) (PredictRequest, error) {
	var req PredictRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %v; %s", err, requestForms)
	}
	// Token returns io.EOF only when nothing but whitespace remains.
	if tok, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("request body carries trailing data after the JSON value (next token %v); send exactly one JSON object", tok)
	}
	return req, nil
}

// BagList flattens the request into a list of member sequences, in
// response order. It performs no model- or registry-level validation (bag
// size, benchmark names, batch range) — the server layers those on top,
// and the router deliberately leaves them to the replica that owns each
// bag.
func (r *PredictRequest) BagList() ([][]Member, error) {
	var bags [][]Member
	if len(r.Bag) > 0 {
		bags = append(bags, r.Bag)
	}
	for i, bag := range r.Bags {
		if len(bag.Members) == 0 {
			return nil, fmt.Errorf(`bags[%d] has no "members"; %s`, i, requestForms)
		}
		bags = append(bags, bag.Members)
	}
	if len(bags) == 0 {
		return nil, fmt.Errorf("no bags: %s", requestForms)
	}
	return bags, nil
}

// CanonicalKey is the permutation-invariant identity of a bag on the wire:
// members sorted by (benchmark, batch) and joined into the canonical
// dataset bag key. The feature cache and the cluster router both key on
// it, which is what routes every permutation of the same multiset of
// members to the same replica and the same cache entry.
func CanonicalKey(ms []Member) string {
	s := make([]dataset.Member, len(ms))
	for i, m := range ms {
		s[i] = m.member()
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].Benchmark != s[j].Benchmark {
			return s[i].Benchmark < s[j].Benchmark
		}
		return s[i].Batch < s[j].Batch
	})
	return dataset.BagKeyOf(s)
}

// BagResult is one bag's answer. Members always lists the bag; the a/b
// fields are also populated for 2-application bags, so responses keep the
// encoding pair-era clients parse.
type BagResult struct {
	A            *Member  `json:"a,omitempty"`
	B            *Member  `json:"b,omitempty"`
	Members      []Member `json:"members"`
	PredictedSec float64  `json:"predicted_gpu_bag_time_sec"`
	Fairness     float64  `json:"fairness"`
	Cached       bool     `json:"cached"`
}

// PredictResponse is the /v1/predict success body. Degraded is true when
// the answer came from the brownout fast tier rather than the exact
// simulation path (omitted when false, so pre-brownout clients and
// byte-identity tests see an unchanged encoding).
type PredictResponse struct {
	ModelScheme string      `json:"model_scheme"`
	Results     []BagResult `json:"results"`
	Degraded    bool        `json:"degraded,omitempty"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status          string  `json:"status"`
	ModelScheme     string  `json:"model_scheme"`
	ModelFeatures   int     `json:"model_features"`
	TrainedOnPoints int     `json:"trained_on_points"`
	CachedBags      int     `json:"cached_bags"`
	InFlight        int64   `json:"in_flight"`
	UptimeSec       float64 `json:"uptime_sec"`
	// Shares is the generator's MPS share profile (dataset
	// Config.SharesLabel), omitted for the equal split.
	Shares string `json:"shares,omitempty"`
}

// CacheEntryResponse is the GET /v1/cache/entry body: one published
// feature-cache entry, bit-exact (JSON float64 encoding round-trips
// exactly), served to peers filling a miss without re-simulating.
type CacheEntryResponse struct {
	Key      string    `json:"key"`
	X        []float64 `json:"x"`
	Fairness float64   `json:"fairness"`
}

// SnapshotFormat identifies the feature-cache snapshot schema.
const SnapshotFormat = "mapc-feature-snapshot-v1"

// Snapshot is the serialized feature cache: the warm-start unit a fresh
// replica restores from disk (via fsatomic) or fetches from a peer
// (GET /v1/cache/snapshot) so it doesn't re-simulate the hot working set.
// Entries are ordered most- to least-recently used, so restoring into a
// smaller budget keeps the hottest prefix.
type Snapshot struct {
	Format      string `json:"format"`
	ModelScheme string `json:"model_scheme"`
	K           int    `json:"k"`
	Width       int    `json:"width"`
	// Shares is the generator's MPS share profile (empty for the equal
	// split). Feature vectors are share-independent today, but the cache
	// namespace is share-qualified (see featureCache), so snapshots only
	// seed replicas measuring the same profile.
	Shares  string          `json:"shares,omitempty"`
	Entries []SnapshotEntry `json:"entries"`
}

// SnapshotEntry is one cached bag: its canonical key and raw features.
type SnapshotEntry struct {
	Key      string    `json:"key"`
	X        []float64 `json:"x"`
	Fairness float64   `json:"fairness"`
}
