package serve

import (
	"bytes"
	"testing"

	"mapc/internal/vision"
)

// FuzzPredictRequest drives untrusted bodies through the replica's
// request path — DecodeRequest, BagList, parseBags — against a pair
// model. Whatever the body, the path must not panic, and it must either
// fail or yield bags whose every member passes vision.CheckMember and
// whose CanonicalKey is the same under any member order.
func FuzzPredictRequest(f *testing.F) {
	s := &Server{cfg: Config{MaxBatch: DefaultMaxBatch}, trainedK: 2}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		bags, err := s.parseBags(&req)
		if err != nil {
			return
		}
		for i, bag := range bags {
			for _, m := range bag {
				if err := vision.CheckMember(m.Benchmark, m.Batch); err != nil {
					t.Fatalf("bag %d accepted with an invalid member: %v", i, err)
				}
			}
			key := CanonicalKey(bag)
			perm := make([]Member, len(bag))
			for r := 1; r < len(bag); r++ {
				for j := range bag {
					perm[j] = bag[(j+r)%len(bag)]
				}
				if got := CanonicalKey(perm); got != key {
					t.Fatalf("bag %d: rotation %d keys %q, original %q", i, r, got, key)
				}
			}
			for j := range bag {
				perm[j] = bag[len(bag)-1-j]
			}
			if got := CanonicalKey(perm); got != key {
				t.Fatalf("bag %d: reversal keys %q, original %q", i, got, key)
			}
		}
	})
}
