package vision

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mapc/internal/trace"
)

// DefaultImageSize is the side length of synthetic benchmark images. The
// paper's suite operated on camera frames; 96x96 keeps the real algorithms
// fast enough for exhaustive testing while preserving their structure.
const DefaultImageSize = 96

// sampleCap bounds how many batch images are actually executed; the
// remaining images are accounted for by linear extrapolation of the sampled
// counts (the standard sampled-simulation methodology, cf. SimPoint). Batch
// processing is embarrassingly parallel across images, so per-image costs
// are statistically identical and linear scaling is exact in expectation.
const sampleCap = 3

// Benchmark is one Table-II workload. Implementations perform the real
// computation on the provided images and report instrumentation through rec.
type Benchmark interface {
	// Name returns the canonical lower-case benchmark identifier.
	Name() string
	// Scene returns the synthetic scene kind the benchmark expects.
	Scene() SceneKind
	// run executes the benchmark on the images under instrumentation and
	// returns benchmark-specific summary statistics.
	run(images []*Image, rec *trace.Recorder) (map[string]float64, error)
}

// Result bundles the outcome of an instrumented benchmark run.
type Result struct {
	// Workload is the instrumented description consumed by the simulators.
	Workload *trace.Workload
	// Summary holds benchmark-specific functional outputs
	// (e.g. "keypoints", "matches", "support_vectors").
	Summary map[string]float64
}

// MaxBatch is the largest batch Run accepts. It keeps every product Run
// and scaleWorkload form far inside int64, and the int ones inside 32 bits.
// The extrapolation factor is batch/sample < 2^16, and on a sampled run of
// any of the nine benchmarks at DefaultImageSize a phase's per-category
// count is below 2^24 and its parallelism below 2^15, so:
//
//   - TransferBytes = batch × 96·96·8 < 2^16 × 2^17 = 2^33;
//   - a scaled per-category count < 2^24 × 2^16 = 2^40 (uint64);
//   - a scaled parallelism < 2^15 × 2^16 = 2^31;
//   - launches = sampled launches × ⌈factor⌉ ≤ 2^16 per sampled launch.
//
// 65,536 images is 200× the paper's largest batch (320).
const MaxBatch = 1 << 16

// Run executes benchmark b on a synthetic batch of batchSize images derived
// from seed, returning the extrapolated workload and functional summary.
// batchSize must be in [1, MaxBatch].
func Run(b Benchmark, batchSize int, seed uint64) (*Result, error) {
	if err := CheckBatch(batchSize); err != nil {
		return nil, err
	}
	sample := batchSize
	if sample > sampleCap {
		sample = sampleCap
	}
	images := make([]*Image, sample)
	for i := range images {
		images[i] = SynthesizeImage(b.Scene(), DefaultImageSize, DefaultImageSize,
			seed+uint64(i)*0x9E37_79B9)
	}

	rec := trace.NewRecorder(b.Name(), batchSize)
	summary, err := b.run(images, rec)
	if err != nil {
		return nil, fmt.Errorf("vision: %s: %w", b.Name(), err)
	}
	w, err := rec.Workload()
	if err != nil {
		return nil, fmt.Errorf("vision: %s instrumentation: %w", b.Name(), err)
	}
	if sample < batchSize {
		scaleWorkload(w, float64(batchSize)/float64(sample))
	}
	w.TransferBytes = int64(batchSize) * int64(DefaultImageSize*DefaultImageSize) * 8
	return &Result{Workload: w, Summary: summary}, nil
}

// scaleWorkload extrapolates a sampled run to the full batch: instruction
// counts and exposed parallelism grow linearly with the number of
// independent images. Footprints do NOT scale: a phase's footprint is its
// instantaneous working set (one image's data plus shared tables), which is
// what determines cache behaviour — extra batch images are processed
// through the same working set, not resident simultaneously. Patterns,
// reuse, vector widths and batch-invariant phases are untouched.
func scaleWorkload(w *trace.Workload, factor float64) {
	for i := range w.Phases {
		p := &w.Phases[i]
		if p.BatchInvariant {
			continue
		}
		p.Counts = p.Counts.Scale(factor)
		p.Parallelism = int(float64(p.Parallelism) * factor)
		if p.Parallelism < 1 {
			p.Parallelism = 1
		}
		// Each recorded phase ran once per sampled image; the full batch
		// re-launches it once per extrapolated image.
		p.Launches = p.LaunchCount() * int(math.Ceil(factor))
	}
}

// names is the Table-II suite in the paper's canonical plotting order
// (Figures 1-4); builders[i] constructs the benchmark named names[i].
var names = [...]string{"fast", "hog", "knn", "objrec", "orb", "sift", "surf", "svm", "facedet"}

var builders = [len(names)]func() Benchmark{
	func() Benchmark { return NewFAST() },
	func() Benchmark { return NewHoG() },
	func() Benchmark { return NewKNN() },
	func() Benchmark { return NewObjRec() },
	func() Benchmark { return NewORB() },
	func() Benchmark { return NewSIFT() },
	func() Benchmark { return NewSURF() },
	func() Benchmark { return NewSVM() },
	func() Benchmark { return NewFaceDet() },
}

// All returns the nine benchmarks, freshly built, in plotting order.
func All() []Benchmark {
	bs := make([]Benchmark, len(builders))
	for i, build := range builders {
		bs[i] = build()
	}
	return bs
}

// Names returns the canonical benchmark names in plotting order.
func Names() []string { return append([]string(nil), names[:]...) }

// ByName builds the benchmark with the given canonical name.
func ByName(name string) (Benchmark, error) {
	if i := slices.Index(names[:], name); i >= 0 {
		return builders[i](), nil
	}
	return nil, CheckName(name)
}

// CheckName reports whether name is a canonical benchmark name, building
// nothing.
func CheckName(name string) error {
	if slices.Contains(names[:], name) {
		return nil
	}
	known := Names()
	sort.Strings(known)
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("vision: empty benchmark name (known: %v)", known)
	}
	return fmt.Errorf("vision: unknown benchmark %q (known: %v)", name, known)
}

// CheckBatch reports whether batch is in [1, MaxBatch].
func CheckBatch(batch int) error {
	if batch <= 0 {
		return fmt.Errorf("vision: non-positive batch %d", batch)
	}
	if batch > MaxBatch {
		return fmt.Errorf("vision: batch %d exceeds the maximum of %d", batch, MaxBatch)
	}
	return nil
}

// CheckMember is the one validation every bag member passes before it is
// measured — by the generator, the server and the command-line parsers:
// CheckName, then CheckBatch. It allocates nothing for a valid member.
func CheckMember(name string, batch int) error {
	if err := CheckName(name); err != nil {
		return err
	}
	return CheckBatch(batch)
}
