package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapc/internal/faultinject"
)

// syntheticPoint builds a recognizable fake point for journal I/O tests
// (no simulation required).
func syntheticPoint(i int) Point {
	return Point{
		Members: []Member{
			{Benchmark: "sift", Batch: 20 * (i + 1)},
			{Benchmark: "surf", Batch: 20 * (i + 1)},
		},
		X:        []float64{float64(i), 1.5 * float64(i), 0.125},
		Y:        0.001 * float64(i+1),
		Fairness: 0.5,
		CPUTimes: []float64{1, 2},
		GPUTimes: []float64{3, 4},
	}
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "corpus.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string]Point{}
	for i := 0; i < 3; i++ {
		p := syntheticPoint(i)
		key := BagKeyOf(p.Members)
		if err := j.Append(key, p); err != nil {
			t.Fatal(err)
		}
		pts[key] = p
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Appends after Close fail loudly.
	if err := j.Append("x", syntheticPoint(9)); err == nil {
		t.Fatal("append to closed journal succeeded")
	}

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 || j2.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want 3/0", j2.Len(), j2.Dropped())
	}
	for key, want := range pts {
		got, ok := j2.Lookup(key)
		if !ok {
			t.Fatalf("key %s missing after reopen", key)
		}
		if got.Y != want.Y || BagKeyOf(got.Members) != BagKeyOf(want.Members) || len(got.X) != len(want.X) {
			t.Fatalf("key %s: %+v != %+v", key, got, want)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("key %s: X[%d] = %v, want %v", key, i, got.X[i], want.X[i])
			}
		}
	}
}

func TestCreateJournalRefusesExisting(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := CreateJournal(path, cfg); err == nil {
		t.Fatal("CreateJournal clobbered an existing journal")
	} else if !strings.Contains(err.Error(), "resume") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestOpenJournalCreatesWhenMissing(t *testing.T) {
	cfg := smallConfig()
	j, err := OpenJournal(journalPath(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("fresh journal Len = %d", j.Len())
	}
}

func TestOpenJournalRejectsConfigMismatch(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k", syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal resumed under a different configuration")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("undescriptive mismatch error: %v", err)
	}

	// Worker count must NOT invalidate a journal (outputs are
	// worker-invariant by construction).
	sameButParallel := cfg
	sameButParallel.Workers = 8
	j2, err := OpenJournal(path, sameButParallel)
	if err != nil {
		t.Fatalf("worker count invalidated the journal: %v", err)
	}
	j2.Close()
}

func TestFingerprintSensitivity(t *testing.T) {
	cfg := smallConfig()
	base := cfg.Fingerprint()
	if cfgW := cfg; true {
		cfgW.Workers = 5
		if cfgW.Fingerprint() != base {
			t.Error("Workers changed the fingerprint")
		}
	}
	for name, mut := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"threads": func(c *Config) { c.Threads++ },
		"batches": func(c *Config) { c.BatchSizes = []int{20, 40} },
		"bench":   func(c *Config) { c.Benchmarks = []string{"fast", "hog"} },
		"cpu":     func(c *Config) { c.CPU.PrefetchDegree = 2 },
		"gpu":     func(c *Config) { c.GPU.SMs++ },
		"mixed":   func(c *Config) { c.MixedPairs++ },
	} {
		c := smallConfig()
		mut(&c)
		if c.Fingerprint() == base {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
}

// TestFingerprintEffectiveMixed pins that the fingerprint records the
// mixed-bag count the corpus really has: below three batch sizes there
// are none, so MixedPairs cannot move it, and journals written with
// MixedPairs = 0 for such batch lists keep resuming.
func TestFingerprintEffectiveMixed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSizes = []int{20, 40}
	ten := cfg.Fingerprint()
	cfg.MixedPairs = 0
	if zero := cfg.Fingerprint(); zero != ten {
		t.Errorf("batches 20,40: MixedPairs 10 and 0 fingerprints differ:\n  %s\n  %s", ten, zero)
	}
	cfg.BatchSizes = []int{20, 40, 80}
	zero := cfg.Fingerprint()
	cfg.MixedPairs = 10
	if cfg.Fingerprint() == zero {
		t.Error("batches 20,40,80: MixedPairs 10 and 0 share a fingerprint")
	}
}

// TestJournalTornTailTolerated is the loader half of the torn-write
// contract: a file whose final line is a partial record (crash between
// write and fsync) loads cleanly minus the torn record, and the
// resume-open compacts the file back to a fully parsable state.
func TestJournalTornTailTolerated(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("good", syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the file by hand: append a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","point":{"Members"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if j2.Len() != 1 || j2.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1/1", j2.Len(), j2.Dropped())
	}
	if _, ok := j2.Lookup("good"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := j2.Lookup("torn"); ok {
		t.Fatal("torn record resurrected")
	}
	j2.Close()

	// The resume-open compacted the file: a third open sees zero drops.
	j3, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Dropped() != 0 || j3.Len() != 1 {
		t.Fatalf("compaction did not heal the tear: Len=%d Dropped=%d", j3.Len(), j3.Dropped())
	}
	j3.Close()
}

// TestJournalCorruptMiddleTruncates: WAL semantics — everything at and
// after the first unparsable record is discarded, even when later lines
// parse.
func TestJournalCorruptMiddleTruncates(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt line followed by a well-formed one.
	if _, err := f.WriteString("NOT JSON\n{\"key\":\"b\",\"point\":{}}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 1 kept and 2 dropped", j2.Len(), j2.Dropped())
	}
	if _, ok := j2.Lookup("b"); ok {
		t.Fatal("record after corruption trusted")
	}
}

func TestJournalRejectsForeignHeader(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(`{"format":"mapc-journal-v999","config_sha256":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, cfg); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("foreign format accepted: %v", err)
	}
	if err := os.WriteFile(path, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, cfg); err == nil {
		t.Fatal("headerless journal accepted")
	}
}

// TestJournalKeepsRawValues pins the aliasing contract: corpus
// normalization scales Point.X in place after generation, and neither
// direction of sharing may leak scaled values into the journal.
func TestJournalKeepsRawValues(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := syntheticPoint(1)
	raw := append([]float64(nil), p.X...)
	if err := j.Append("k", p); err != nil {
		t.Fatal(err)
	}

	// Caller-side mutation (what normalize() does) must not reach the
	// journal...
	for i := range p.X {
		p.X[i] *= 1e6
	}
	// ...nor must mutating a looked-up copy.
	got, _ := j.Lookup("k")
	for i := range got.X {
		got.X[i] = -1
	}
	if err := j.Close(); err != nil { // Close commits the compacted file
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reread, ok := j2.Lookup("k")
	if !ok {
		t.Fatal("record lost")
	}
	for i := range raw {
		if reread.X[i] != raw[i] {
			t.Fatalf("journal leaked mutated X[%d]=%v, want raw %v", i, reread.X[i], raw[i])
		}
	}
}

// TestJournalTornWriteFaultInjection drives the writer half of the torn
// write through the faultinject hook: the injected fault must leave a
// genuinely torn file that the next open heals.
func TestJournalTornWriteFaultInjection(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetFaultInjector(faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
		{Site: FaultSiteJournalAppend, Index: 1, Kind: faultinject.KindTornWrite, KeepBytes: 10, Once: true},
	}}))

	if err := j.Append("a", syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	err = j.Append("b", syntheticPoint(1))
	var tw *faultinject.TornWrite
	if !errors.As(err, &tw) {
		t.Fatalf("append under torn-write fault returned %v", err)
	}
	if _, ok := j.Lookup("b"); ok {
		t.Fatal("torn record entered the in-memory journal")
	}
	// Abandon j without Close: the process "died" here. The on-disk file
	// now ends in a 10-byte partial record.
	j3, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatalf("open after simulated torn write: %v", err)
	}
	defer j3.Close()
	if j3.Len() != 1 || j3.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d after torn write, want 1/1", j3.Len(), j3.Dropped())
	}
}
