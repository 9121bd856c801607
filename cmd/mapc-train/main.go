// Command mapc-train generates the corpus, trains the decision-tree
// predictor with a chosen feature scheme, reports cross-validation error,
// and optionally prints the learned tree for manual decision-path analysis
// (Section VI-C).
//
// Usage:
//
//	mapc-train                         # full scheme, LOOCV report
//	mapc-train -scheme insmix+cputime  # one of the Figure-5 schemes
//	mapc-train -dump-tree              # print the fitted tree
//	mapc-train -protocol containing    # stricter LOOCV protocol
package main

import (
	"flag"
	"fmt"
	"os"

	"mapc/internal/cli"
	"mapc/internal/core"
	"mapc/internal/dataset"
)

var (
	genFlags  = cli.Bind(flag.CommandLine, cli.WithK|cli.WithScheme)
	dumpTree  = flag.Bool("dump-tree", false, "print the tree fitted on the full corpus")
	protoName = flag.String("protocol", "own", "LOOCV protocol: own (hold out the benchmark's homogeneous points) or containing (hold out every bag containing it)")
	maxDepth  = flag.Int("max-depth", 0, "tree depth bound (0 = unbounded)")
	outModel  = flag.String("o", "", "save the full-corpus model to this JSON file")
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
	protocol := core.HoldOutOwn
	switch *protoName {
	case "own":
	case "containing":
		protocol = core.HoldOutContaining
	default:
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mapc-train: generating %d-app-bag corpus (%d workers)...\n",
		cfg.EffectiveK(), cfg.EffectiveWorkers())
	corpus, err := gen.Generate()
	if err != nil {
		fatal(err)
	}

	params := core.DefaultTreeParams()
	params.MaxDepth = *maxDepth
	results, err := core.LOOCVWorkers(corpus, scheme, params, protocol, cfg.Workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scheme=%s protocol=%s\n", scheme.Name, protocol)
	for _, r := range results {
		fmt.Printf("  %-8s mean rel. error %7.2f%% over %d points\n",
			r.Benchmark, r.MeanRelErr, len(r.PerPoint))
	}
	fmt.Printf("  %-8s mean rel. error %7.2f%%\n", "MEAN", core.MeanLOOCVError(results))

	var fullModel *core.Predictor
	if *outModel != "" || *dumpTree {
		fullModel, err = core.Train(corpus, scheme, params)
		if err != nil {
			fatal(err)
		}
	}
	if *outModel != "" {
		if err := fullModel.SaveFile(*outModel); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-train: saved model to %s\n", *outModel)
	}

	if *dumpTree {
		p := fullModel
		fmt.Println("\nfitted tree (full corpus):")
		fmt.Print(p.Tree().Export(p.FeatureNames()))
		imps, err := p.Tree().FeatureImportances()
		if err != nil {
			fatal(err)
		}
		fmt.Println("feature importances:")
		for i, name := range p.FeatureNames() {
			if imps[i] > 0 {
				fmt.Printf("  %-12s %.4f\n", name, imps[i])
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-train:", err)
	os.Exit(1)
}
