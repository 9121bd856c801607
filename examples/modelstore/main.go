// Modelstore: the production workflow — train the predictor once, persist
// it to disk, and serve predictions from the loaded model without
// regenerating the corpus. This is how a scheduler would deploy the paper's
// predictor: data collection is expensive and happens offline; admission
// decisions load the model and featurize only the incoming bag.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mapc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("modelstore: ")

	dir, err := os.MkdirTemp("", "mapc-model")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "predictor.json")

	// Offline: collect the corpus and train.
	fmt.Println("offline phase: generating corpus and training...")
	corpus, err := mapc.GenerateCorpus()
	if err != nil {
		log.Fatal(err)
	}
	trained, err := mapc.Train(corpus, mapc.SchemeFull)
	if err != nil {
		log.Fatal(err)
	}
	if err := trained.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved model: %s (%d bytes, tree depth %d)\n",
		filepath.Base(path), info.Size(), trained.Tree().Depth())

	// Online: load the model and serve predictions. Featurization still
	// needs the measurement generator (isolated runs + CPU co-run), but
	// never the expensive GPU bag execution or corpus regeneration.
	fmt.Println("\nonline phase: loading model and serving predictions...")
	served, err := mapc.LoadPredictorFile(path)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := mapc.NewGenerator(mapc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	requests := [][2]mapc.Member{
		{{Benchmark: "hog", Batch: 40}, {Benchmark: "surf", Batch: 40}},
		{{Benchmark: "fast", Batch: 160}, {Benchmark: "knn", Batch: 20}},
		{{Benchmark: "svm", Batch: 80}, {Benchmark: "svm", Batch: 80}},
	}
	for _, req := range requests {
		x, fairness, err := gen.BagFeatures(req[:])
		if err != nil {
			log.Fatal(err)
		}
		pred, err := served.PredictRaw(x)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12v + %-12v fairness %.3f -> predicted bag time %8.3f ms\n",
			req[0], req[1], fairness, pred*1e3)
	}

	// Consistency check: the loaded model must agree with the in-memory
	// one on every training point.
	var maxDiff float64
	for i := range corpus.Points {
		a, err := trained.PredictPoint(&corpus.Points[i])
		if err != nil {
			log.Fatal(err)
		}
		b, err := served.PredictPoint(&corpus.Points[i])
		if err != nil {
			log.Fatal(err)
		}
		if d := a - b; d > maxDiff || -d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nround-trip check: max prediction difference %.3g (must be 0)\n", maxDiff)
}
