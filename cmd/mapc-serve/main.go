// Command mapc-serve runs the HTTP prediction service: it warm-loads a
// persisted model (mapc-train -o) or trains one at startup, then answers
// GPU bag-time queries until SIGTERM/SIGINT, draining in-flight requests on
// shutdown.
//
// Endpoints:
//
//	POST /v1/predict  {"bag":[{"benchmark":"sift","batch":20},{"benchmark":"surf","batch":20}]}
//	                  or {"bags":[{"members":[…]},{"members":[…]},…]}   (batched)
//	GET  /healthz
//	GET  /metrics
//
// Every bag in a request must carry exactly as many applications as the
// loaded model was trained for (-k at train time); other sizes get a 400.
//
// Usage:
//
//	mapc-serve                              # train full-scheme model, :8080
//	mapc-serve -model model.json            # warm-load; scheme must match -scheme
//	mapc-serve -k 4                         # train and serve 4-app bags
//	mapc-serve -benchmarks sift,surf -batches 20,40   # fast-start subset
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mapc/internal/cli"
	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/profiling"
	"mapc/internal/serve"
)

var (
	genFlags       = cli.Bind(flag.CommandLine, cli.WithK|cli.WithShares|cli.WithRegistry|cli.WithScheme)
	addr           = flag.String("addr", ":8080", "listen address")
	modelPath      = flag.String("model", "", "load a saved model (mapc-train -o) instead of training at startup")
	maxInFlight    = flag.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent /v1/predict requests admitted before shedding with 503")
	maxBatch       = flag.Int("max-batch", serve.DefaultMaxBatch, "maximum bags per request")
	timeout        = flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline")
	grace          = flag.Duration("grace", 30*time.Second, "shutdown drain budget for in-flight requests")
	pprofAddr      = flag.String("pprof", "", "opt-in net/http/pprof listener on a separate loopback address (e.g. 127.0.0.1:6060); empty = disabled")
	featureCacheMB = flag.Int("feature-cache-mb", serve.DefaultFeatureCacheMB, "cross-request feature cache budget in MiB (LRU past it; cannot be disabled)")
	snapshotPath   = flag.String("snapshot", "", "feature-cache snapshot file: loaded at boot when present, saved atomically on drain")
	warmFrom       = flag.String("warm-from", "", "peer replica base URL to pull a cache snapshot from at boot (e.g. http://127.0.0.1:8081)")
	peers          = flag.String("peers", "", "comma-separated peer base URLs consulted on cache misses before simulating locally")
	brownout       = flag.Float64("brownout-watermark", serve.DefaultBrownoutWatermark, "in-flight fraction of -max-inflight past which new requests are answered from the fast fidelity tier and marked degraded; 0 disables brownout (shed-only admission)")
	maxDegraded    = flag.Int("max-degraded-inflight", 0, "extra admission slots for degraded answers once the exact pool is full; 0 = 4x -max-inflight")
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
	// Checked before the (possibly minutes-long) startup training.
	if err := cli.CheckMB("feature-cache-mb", *featureCacheMB); err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		ln, err := profiling.ListenAndServe(*pprofAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "mapc-serve: pprof:", err)
		})
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "mapc-serve: pprof listening on http://%s/debug/pprof/ (loopback only)\n", ln.Addr())
	}

	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}

	var model *core.Predictor
	if *modelPath != "" {
		model, err = core.LoadFile(*modelPath)
		if err != nil {
			fatal(err)
		}
		// Refuse a model trained under a different scheme loudly: it would
		// accept the same full-width vectors yet answer a different
		// question.
		if err := model.RequireScheme(scheme); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-serve: loaded model %s (scheme %s, %d features, trained on %d points)\n",
			*modelPath, model.Scheme().Name, model.NumFeatures(), model.TrainedOnPoints())
	} else {
		fmt.Fprintf(os.Stderr, "mapc-serve: no -model; generating training corpus (%d workers)...\n", cfg.EffectiveWorkers())
		t0 := time.Now()
		corpus, err := gen.Generate()
		if err != nil {
			fatal(err)
		}
		model, err = core.Train(corpus, scheme, core.DefaultTreeParams())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-serve: trained scheme-%s model on %d points in %v\n",
			scheme.Name, model.TrainedOnPoints(), time.Since(t0).Round(time.Millisecond))
	}

	srv, err := serve.New(serve.Config{
		Model:               model,
		Generator:           gen,
		MaxInFlight:         *maxInFlight,
		MaxBatch:            *maxBatch,
		RequestTimeout:      *timeout,
		Workers:             cfg.Workers,
		FeatureCacheMB:      *featureCacheMB,
		BrownoutWatermark:   *brownout,
		MaxDegradedInFlight: *maxDegraded,
	})
	if err != nil {
		fatal(err)
	}

	// Warm start, cheapest source first: a local snapshot survives restarts
	// without any network; -warm-from pulls a serving peer's cache at join;
	// -peers keeps filling misses from siblings while running.
	if *snapshotPath != "" {
		switch n, err := srv.LoadSnapshotFile(*snapshotPath); {
		case err == nil:
			fmt.Fprintf(os.Stderr, "mapc-serve: warm-started %d cached bags from %s\n", n, *snapshotPath)
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "mapc-serve: no snapshot at %s yet; starting cold\n", *snapshotPath)
		default:
			fatal(fmt.Errorf("loading snapshot %s: %w", *snapshotPath, err))
		}
	}
	if *warmFrom != "" {
		warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n, err := srv.WarmFromPeer(warmCtx, nil, *warmFrom)
		cancel()
		if err != nil {
			// A missing peer must not block boot: the replica serves cold.
			fmt.Fprintf(os.Stderr, "mapc-serve: warm-from %s failed (%v); starting cold\n", *warmFrom, err)
		} else {
			fmt.Fprintf(os.Stderr, "mapc-serve: warm-started %d cached bags from peer %s\n", n, *warmFrom)
		}
	}
	if *peers != "" {
		peerList := strings.Split(strings.ReplaceAll(*peers, " ", ""), ",")
		srv.SetPeerFill(nil, peerList, 0)
		fmt.Fprintf(os.Stderr, "mapc-serve: peer fill enabled against %d peer(s)\n", len(peerList))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	brownoutDesc := "off"
	if *brownout > 0 {
		brownoutDesc = fmt.Sprintf("%.2f", *brownout)
	}
	fmt.Fprintf(os.Stderr, "mapc-serve: listening on %s (scheme %s, max-inflight %d, timeout %v, brownout %s)\n",
		*addr, model.Scheme().Name, *maxInFlight, *timeout, brownoutDesc)

	select {
	case err := <-errc:
		fatal(err) // listener failed before any signal
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "mapc-serve: signal received; draining in-flight requests (up to %v)...\n", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Shutdown has cancelled the requests still in flight and
			// waited for them to answer 503; the cache holds only
			// completed entries, so the snapshot below is saved as usual.
			fmt.Fprintf(os.Stderr, "mapc-serve: drain overran -grace %v (%v); cancelled the in-flight requests\n", *grace, err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
		if *snapshotPath != "" {
			if err := srv.SaveSnapshotFile(*snapshotPath); err != nil {
				fmt.Fprintf(os.Stderr, "mapc-serve: saving snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "mapc-serve: saved %d cached bags to %s\n", srv.CacheLen(), *snapshotPath)
			}
		}
		fmt.Fprintln(os.Stderr, "mapc-serve: drained; bye")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-serve:", err)
	os.Exit(1)
}
