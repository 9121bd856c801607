package serve

import (
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/phasesum"
)

// labelledMetric extracts a labelled metric line's value from the
// exposition (the full "name{label=...}" string must match exactly).
func labelledMetric(t *testing.T, body, line string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(line) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing from exposition:\n%s", line, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", line, m[1], err)
	}
	return v
}

// TestFidelityMetricsExposition: /metrics reports the generator's fidelity
// tier and per-kind co-run counters; a fast-fidelity generator serving
// fresh bags must show analytic runs and no exact ones.
func TestFidelityMetricsExposition(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Benchmarks = []string{"sift", "surf"}
	cfg.BatchSizes = []int{20, 40}
	cfg.MixedPairs = 0
	cfg.Fidelity = phasesum.Fast
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := core.Train(corpus, core.SchemeFull, core.DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Model: mod, Generator: gen, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	body := `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":40}]}`
	if rr := doJSON(t, h, http.MethodPost, "/v1/predict", body); rr.Code != http.StatusOK {
		t.Fatalf("predict code %d body %s", rr.Code, rr.Body)
	}

	rr := doJSON(t, h, http.MethodGet, "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics code %d", rr.Code)
	}
	exp := rr.Body.String()
	if !strings.Contains(exp, `mapc_fidelity_info{tier="fast"} 1`) {
		t.Errorf("fidelity tier label missing:\n%s", exp)
	}
	if v := labelledMetric(t, exp, `mapc_fidelity_runs_total{kind="analytic"}`); v == 0 {
		t.Error("fast-fidelity serving reported zero analytic co-runs")
	}
	if v := labelledMetric(t, exp, `mapc_fidelity_runs_total{kind="exact"}`); v != 0 {
		t.Errorf("fast-fidelity serving reported %v unconditional-exact co-runs", v)
	}
	labelledMetric(t, exp, `mapc_fidelity_runs_total{kind="exact_fallback"}`) // present, any value
	// The per-reason fallback split is always exposed, one line per reason,
	// and must account for every fallback counted above.
	var reasons float64
	for _, reason := range []string{"low_confidence", "sub_sm_share", "bandwidth_gate"} {
		reasons += labelledMetric(t, exp, `mapc_fidelity_fallbacks_total{reason="`+reason+`"}`)
	}
	if total := labelledMetric(t, exp, `mapc_fidelity_runs_total{kind="exact_fallback"}`); reasons != total {
		t.Errorf("fallback reasons sum to %v, want %v", reasons, total)
	}
}

// TestFidelityMetricsDefaultExact: the package fixture's generator runs at
// the zero-value (exact) tier and the exposition says so.
func TestFidelityMetricsDefaultExact(t *testing.T) {
	fixture(t)
	s := newTestServer(t, nil)
	h := s.Handler()
	body := `{"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}`
	if rr := doJSON(t, h, http.MethodPost, "/v1/predict", body); rr.Code != http.StatusOK {
		t.Fatalf("predict code %d body %s", rr.Code, rr.Body)
	}
	rr := doJSON(t, h, http.MethodGet, "/metrics", "")
	exp := rr.Body.String()
	if !strings.Contains(exp, `mapc_fidelity_info{tier="exact"} 1`) {
		t.Errorf("default tier label missing:\n%s", exp)
	}
	if v := labelledMetric(t, exp, `mapc_fidelity_runs_total{kind="analytic"}`); v != 0 {
		t.Errorf("exact-tier serving reported %v analytic co-runs", v)
	}
}
