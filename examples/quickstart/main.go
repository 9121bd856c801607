// Quickstart: generate the paper's training corpus, train the decision-tree
// predictor on the full Table-IV feature set, and predict the GPU execution
// time of a heterogeneous 2-application bag the way an edge-server scheduler
// would before admitting it.
package main

import (
	"fmt"
	"log"

	"mapc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	fmt.Println("generating the 91-run training corpus (Section V-B)...")
	corpus, err := mapc.GenerateCorpus()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d data points, %d features each\n",
		len(corpus.Points), len(corpus.FeatureNames))

	predictor, err := mapc.Train(corpus, mapc.SchemeFull)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained tree: %d nodes, depth %d\n",
		predictor.Tree().NodeCount(), predictor.Tree().Depth())

	// Predict an unseen heterogeneous bag. BagFeatures measures only what
	// a scheduler can observe cheaply: isolated CPU/GPU runs and a CPU
	// co-run for fairness — never the GPU bag itself.
	gen, err := mapc.NewGenerator(mapc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	a := mapc.Member{Benchmark: "sift", Batch: 40}
	b := mapc.Member{Benchmark: "knn", Batch: 20}
	x, fairness, err := gen.BagFeatures([]mapc.Member{a, b})
	if err != nil {
		log.Fatal(err)
	}
	pred, err := predictor.PredictRaw(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbag %v + %v (CPU fairness %.3f)\n", a, b, fairness)
	fmt.Printf("predicted GPU bag time: %.3f ms\n", pred*1e3)

	// Compare against the simulated ground truth (which required actually
	// running the bag on the GPU model).
	truth, err := gen.MeasureBag([]mapc.Member{a, b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated GPU bag time: %.3f ms\n", truth.Y*1e3)
}
