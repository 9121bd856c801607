// Command mapc-predict trains (or loads) the decision-tree predictor and
// predicts the GPU execution time of one application bag, comparing the
// prediction with the simulated ground truth.
//
// A loaded model must have been trained with the scheme named by -scheme
// (default "full"): models persist their training scheme and feature count,
// and a mismatch is refused loudly instead of silently mispredicting.
//
// Usage:
//
//	mapc-predict                              # the default bag sift/20,surf/20
//	mapc-predict -bag knn/80,svm/40           # a pair
//	mapc-predict -bag sift/20,surf/40,knn/80  # a 3-application bag
//	mapc-predict -model model.json            # model from mapc-train -o
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mapc/internal/cli"
	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/ml"
	"mapc/internal/vision"
)

var (
	genFlags  = cli.Bind(flag.CommandLine, cli.WithShares|cli.WithScheme)
	bagSpec   = flag.String("bag", "sift/20,surf/20", `k-application bag as "bench/batch,bench/batch,..." (2-8 members; batch defaults to 20)`)
	modelPath = flag.String("model", "", "load a saved model (mapc-train -o) instead of training")
)

func main() {
	flag.Parse()
	cfg, err := genFlags.Config()
	if err != nil {
		fatal(err)
	}
	scheme, err := genFlags.Scheme()
	if err != nil {
		fatal(err)
	}
	bag, err := parseBag(*bagSpec)
	if err != nil {
		fatal(fmt.Errorf("parsing -bag: %w", err))
	}
	// A bad member fails here, before any training.
	for _, m := range bag {
		if err := vision.CheckMember(m.Benchmark, m.Batch); err != nil {
			fatal(fmt.Errorf("bag member %v: %w", m, err))
		}
	}
	// Training (when no model is loaded) must produce vectors of the same
	// width the query bag needs, so the corpus bag size follows the query.
	cfg.K = len(bag)
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}
	var predictor *core.Predictor
	if *modelPath != "" {
		predictor, err = core.LoadFile(*modelPath)
		if err != nil {
			fatal(err)
		}
		// A model trained under a different scheme would accept the same
		// full-width vectors yet answer a different question; refuse it.
		if err := predictor.RequireScheme(scheme); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "mapc-predict: generating training corpus...")
		corpus, err := gen.Generate()
		if err != nil {
			fatal(err)
		}
		predictor, err = core.Train(corpus, scheme, core.DefaultTreeParams())
		if err != nil {
			fatal(err)
		}
	}

	x, fairness, err := gen.BagFeatures(bag)
	if err != nil {
		fatal(err)
	}
	pred, err := predictor.PredictRaw(x)
	if err != nil {
		fatal(err)
	}

	truth, err := gen.MeasureBag(bag)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("bag: %s (fairness %.3f)\n", bagLabel(bag), fairness)
	fmt.Printf("predicted GPU bag time: %8.3f ms\n", pred*1e3)
	fmt.Printf("simulated GPU bag time: %8.3f ms\n", truth.Y*1e3)
	if rel, ok := ml.PointRelativeError(truth.Y, pred); ok {
		fmt.Printf("relative error:         %8.2f %%\n", rel)
	} else {
		fmt.Printf("relative error:              n/a (zero ground truth)\n")
	}
}

// parseBag parses "bench/batch,bench/batch,...". A member without "/batch"
// defaults to batch 20 (the suite's smallest size).
func parseBag(spec string) ([]dataset.Member, error) {
	var bag []dataset.Member
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		m := dataset.Member{Benchmark: item, Batch: 20}
		if bench, batch, ok := strings.Cut(item, "/"); ok {
			v, err := strconv.Atoi(strings.TrimSpace(batch))
			if err != nil {
				return nil, fmt.Errorf("member %q: bad batch: %w", item, err)
			}
			m = dataset.Member{Benchmark: strings.TrimSpace(bench), Batch: v}
		}
		bag = append(bag, m)
	}
	return bag, nil
}

func bagLabel(bag []dataset.Member) string {
	parts := make([]string, len(bag))
	for i, m := range bag {
		parts[i] = fmt.Sprintf("%v", m)
	}
	return strings.Join(parts, " + ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-predict:", err)
	os.Exit(1)
}
