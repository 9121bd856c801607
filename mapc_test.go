package mapc

import (
	"strings"
	"sync"
	"testing"
)

var (
	corpusOnce sync.Once
	corpus     *Corpus
	corpusErr  error
)

func sharedCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.BatchSizes = []int{20, 40}
		cfg.MixedPairs = 0
		gen, err := NewGenerator(cfg)
		if err != nil {
			corpusErr = err
			return
		}
		corpus, corpusErr = gen.Generate()
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func TestFacadeEndToEnd(t *testing.T) {
	c := sharedCorpus(t)
	if len(c.Points) == 0 {
		t.Fatal("empty corpus")
	}

	p, err := Train(c, SchemeFull)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.PredictPoint(&c.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 {
		t.Fatalf("prediction %v", pred)
	}

	res, err := LOOCV(c, SchemeFull, DefaultTreeParams(), HoldOutOwn)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 9 {
		t.Fatalf("%d folds", len(res))
	}
	if MeanLOOCVError(res) <= 0 {
		t.Error("zero LOOCV error")
	}
	stats, err := AnalyzePaths(res)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Presence["gpu_time"] <= 0 {
		t.Error("gpu_time absent from all paths")
	}
}

func TestFacadePredictRaw(t *testing.T) {
	c := sharedCorpus(t)
	p, err := TrainWithParams(c, SchemeFull, DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BatchSizes = []int{20, 40}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, fairness, err := gen.BagFeatures([]Member{
		{Benchmark: "sift", Batch: 20},
		{Benchmark: "surf", Batch: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if fairness <= 0 || fairness > 1 {
		t.Fatalf("fairness %v", fairness)
	}
	pred, err := p.PredictRaw(x)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 {
		t.Fatalf("prediction %v", pred)
	}
}

func TestFacadeVocabulary(t *testing.T) {
	if got := Benchmarks(); len(got) != 9 {
		t.Fatalf("Benchmarks() = %v", got)
	}
	kinds := FeatureKinds()
	if len(kinds) != 11 {
		t.Fatalf("FeatureKinds() = %v", kinds)
	}
	names, err := FeatureNames(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 21 {
		t.Fatalf("FeatureNames(2) has %d entries", len(names))
	}
	s, err := NewScheme("custom", "gpu_time", "fairness")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "custom" {
		t.Errorf("scheme name %q", s.Name)
	}
	if _, err := NewScheme("bad", "bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	// Don't regenerate figures here (covered by internal/experiments);
	// just check ID resolution fails loudly for unknown artifacts.
	env := DefaultEnv()
	if _, err := RunExperiment(env, "figure0"); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Errorf("unexpected error for unknown artifact: %v", err)
	}
}

func TestFacadeScheduler(t *testing.T) {
	c := sharedCorpus(t)
	p, err := Train(c, SchemeFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BatchSizes = []int{20, 40}
	s, err := NewScheduler(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	queue := []Job{
		{ID: 0, Member: Member{Benchmark: "sift", Batch: 20}},
		{ID: 1, Member: Member{Benchmark: "fast", Batch: 40}},
		{ID: 2, Member: Member{Benchmark: "hog", Batch: 20}},
		{ID: 3, Member: Member{Benchmark: "surf", Batch: 20}},
	}
	serial, err := s.Run(PolicySerialFIFO, queue)
	if err != nil {
		t.Fatal(err)
	}
	smart, err := s.Run(PolicyPredictedPairing, queue)
	if err != nil {
		t.Fatal(err)
	}
	if smart.Makespan >= serial.Makespan {
		t.Errorf("predicted pairing (%v) not faster than serial (%v)",
			smart.Makespan, serial.Makespan)
	}
}
