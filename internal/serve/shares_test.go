package serve

import (
	"context"
	"testing"

	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// Share-qualified cache namespaces: two caches measuring different MPS
// share profiles must never see each other's entries, the equal split
// must keep the legacy key shape, and snapshots carry the profile.

func TestShareDomainQualifiesKeys(t *testing.T) {
	if got := shareDomain(featureDomain, ""); got != featureDomain {
		t.Errorf("equal split rewrote the domain to %q", got)
	}
	if got := shareDomain(featureDomain, "0.7/0.3"); got != featureDomain+"?shares=0.7/0.3" {
		t.Errorf("share-qualified domain %q", got)
	}
	// Tier domains: the configured tier owns the bare domain, any other
	// tier appends its name. Snapshots and peers depend on these bytes.
	c := newStubFeatureCache(nil, false, 1<<20)
	for _, tc := range []struct {
		tier, fid      phasesum.Fidelity
		shares, domain string
	}{
		{phasesum.Exact, phasesum.Exact, "", "serve/features"},
		{phasesum.Exact, "", "", "serve/features"},
		{phasesum.Exact, phasesum.Fast, "", "serve/features/fast"},
		{phasesum.Fast, phasesum.Fast, "", "serve/features"},
		{phasesum.Exact, phasesum.Exact, "0.7/0.3", "serve/features?shares=0.7/0.3"},
		{phasesum.Exact, phasesum.Fast, "0.7/0.3", "serve/features/fast?shares=0.7/0.3"},
	} {
		c.tier, c.shares = tc.tier, tc.shares
		if got := c.cacheKey("k", tc.fid).Domain; got != tc.domain {
			t.Errorf("tier %q asked %q shares %q: domain %q, want %q", tc.tier, tc.fid, tc.shares, got, tc.domain)
		}
	}
}

// TestSharedLRUSeparatesShareProfiles: two featureCaches over one LRU
// (simulating profile-qualified replicas sharing key space) keep distinct
// entries per profile, and entries() only lists the cache's own profile.
func TestSharedLRUSeparatesShareProfiles(t *testing.T) {
	mk := func(shares string, val float64) *featureCache {
		c := newStubFeatureCache(func(ctx context.Context, bag []dataset.Member, fid phasesum.Fidelity) ([]float64, float64, error) {
			return []float64{val}, val, nil
		}, false, 1<<20)
		c.shares = shares
		return c
	}
	equal := mk("", 1)
	skew := mk("0.7/0.3", 2)

	bag := []dataset.Member{{Benchmark: "sift", Batch: 20}, {Benchmark: "surf", Batch: 20}}
	xe, _, _, err := equal.get(context.Background(), bag, phasesum.Exact)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, _, err := skew.get(context.Background(), bag, phasesum.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if xe[0] == xs[0] {
		t.Fatal("stub caches computed identical values; test is vacuous")
	}

	// Cross-seed: an entry published under one profile must not answer the
	// other profile's key.
	key := dataset.BagKeyOf([]dataset.Member{bag[0], bag[1]})
	if _, ok := equal.peek(key); !ok {
		t.Error("equal-split entry missing from its own namespace")
	}
	if fv, ok := skew.peek(key); !ok {
		t.Error("skewed entry missing from its own namespace")
	} else if fv.x[0] != 2 {
		t.Errorf("skewed namespace answered %v, want the skew-profile vector", fv.x)
	}

	if got := equal.entries(); len(got) != 1 || got[0].X[0] != 1 {
		t.Errorf("equal-split entries() = %+v, want exactly its own entry", got)
	}
	if got := skew.entries(); len(got) != 1 || got[0].X[0] != 2 {
		t.Errorf("skewed entries() = %+v, want exactly its own entry", got)
	}
}
