package phasesum

import (
	"errors"
	"reflect"
	"testing"
)

// rateTable is a Departures test double: per active set (keyed by its
// original indexes), each client's whole-run time at that set's rates.
type rateTable map[string][]float64

func setKey(active []int) string {
	k := ""
	for _, i := range active {
		k += string(rune('a' + i))
	}
	return k
}

func ident(t *float64) float64 { return *t }

func TestDepartures(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name  string
		first []float64
		// next maps each survivor set to its steady state; a missing set
		// fails the test, a nil entry makes next return boom.
		next    rateTable
		want    []float64
		wantErr error
		// calls pins the survivor sets next sees, in order.
		calls []string
	}{
		{
			// Hand-computed: a, b, c contend at times 2, 4, 8. a departs
			// at t=2 with b half done and c a quarter done. The pair b, c
			// then runs at times 3, 6: b's remaining half takes 1.5 (t=3.5),
			// advancing c by 1.5/6 = 1/4 to half done. Alone, c's whole
			// run takes 4, so its remaining half takes 2: t=5.5.
			name:  "three clients",
			first: []float64{2, 4, 8},
			next:  rateTable{"bc": {3, 6}, "c": {4}},
			want:  []float64{2, 3.5, 5.5},
			calls: []string{"bc", "c"},
		},
		{
			// A zero-time client departs at t=0 without advancing the
			// others; the survivors then run from scratch.
			name:  "zero-time client",
			first: []float64{5, 0, 3},
			next:  rateTable{"ac": {4, 2}, "a": {1}},
			want:  []float64{2 + 0.5*1, 0, 2},
			calls: []string{"ac", "a"},
		},
		{
			name:  "single client",
			first: []float64{7},
			want:  []float64{7},
		},
		{
			// active lists ascending original indexes even when a middle
			// client departs first.
			name:  "middle departs first",
			first: []float64{4, 1, 4, 4},
			next:  rateTable{"acd": {3, 3, 3}, "cd": {2, 2}, "d": {1}},
			want:  []float64{1 + 3*0.75, 1, 1 + 3*0.75, 1 + 3*0.75},
			calls: []string{"acd", "cd", "d"},
		},
		{
			name:    "next error propagates",
			first:   []float64{1, 2},
			next:    rateTable{"b": nil},
			wantErr: boom,
			calls:   []string{"b"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var calls []string
			got, err := Departures(c.first, ident, func(active []int) ([]float64, error) {
				k := setKey(active)
				calls = append(calls, k)
				for i := 1; i < len(active); i++ {
					if active[i] <= active[i-1] {
						t.Fatalf("active %v not ascending", active)
					}
				}
				rates, ok := c.next[k]
				if !ok {
					t.Fatalf("unexpected survivor set %q", k)
				}
				if rates == nil {
					return nil, boom
				}
				return rates, nil
			})
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if !reflect.DeepEqual(got, c.want) && c.wantErr == nil {
				t.Errorf("finish = %v, want %v", got, c.want)
			}
			if !reflect.DeepEqual(calls, c.calls) {
				t.Errorf("survivor sets %v, want %v", calls, c.calls)
			}
		})
	}
}

func TestCoRunTierDecision(t *testing.T) {
	low := Gate{Conf: DefaultMinConfidence / 2, Reason: FallbackSubSMShare}
	high := Gate{Conf: 1, Reason: FallbackLowConfidence}
	cases := []struct {
		fid      Fidelity
		n        int
		gate     Gate
		want     string
		wantKind RunKind
	}{
		{"", 2, high, "exact", RunKind{UsedExact: true}},
		{Exact, 2, high, "exact", RunKind{UsedExact: true}},
		{Fast, 1, high, "exact", RunKind{UsedExact: true}},
		{Mixed, 1, low, "exact", RunKind{UsedExact: true}},
		{Fast, 2, low, "phased", RunKind{}},
		{Mixed, 2, high, "phased", RunKind{}},
		{Mixed, 2, low, "exact", RunKind{UsedExact: true, Fallback: FallbackSubSMShare}},
	}
	for _, c := range cases {
		var analyticRuns int
		got, kind, err := CoRun(c.fid, c.n,
			func() ([]string, error) { return []string{"exact"}, nil },
			func() ([]string, Gate, error) {
				analyticRuns++
				return []string{"steady"}, c.gate, nil
			},
			func(first []string) ([]string, error) {
				if first[0] != "steady" {
					t.Errorf("%s/%d: phased from %v, want the analytic steady state", c.fid, c.n, first)
				}
				return []string{"phased"}, nil
			})
		if err != nil || got[0] != c.want || kind != c.wantKind {
			t.Errorf("%s/%d: got %v %+v %v, want %s %+v", c.fid, c.n, got, kind, err, c.want, c.wantKind)
		}
		if analyticRuns > 1 {
			t.Errorf("%s/%d: full-set steady state evaluated %d times", c.fid, c.n, analyticRuns)
		}
	}

	boom := errors.New("boom")
	_, _, err := CoRun(Fast, 2,
		func() ([]string, error) { t.Fatal("analytic error fell back to exact"); return nil, nil },
		func() ([]string, Gate, error) { return nil, Gate{}, boom },
		func([]string) ([]string, error) { t.Fatal("phased after an analytic error"); return nil, nil })
	if !errors.Is(err, boom) {
		t.Errorf("analytic error = %v, want %v", err, boom)
	}
}
