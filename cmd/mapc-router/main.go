// Command mapc-router fronts a fleet of mapc-serve replicas with a
// consistent-hash router: every permutation of the same application bag
// routes to the same replica (and therefore the same feature-cache entry),
// so the tier's aggregate cache grows linearly with replica count. Health
// probes eject dead replicas and re-admit them when they recover; requests
// fail over to ring neighbours in the meantime.
//
// The router holds no model: responses come verbatim from the replicas,
// so a router in front of one replica is bit-identical to querying the
// replica directly.
//
// Endpoints mirror mapc-serve: POST /v1/predict, GET /healthz, GET /metrics.
//
// Usage:
//
//	mapc-router -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	mapc-router -addr :8080 -replicas ... -probe-interval 2s -timeout 60s
//	mapc-router -replicas ... -attempt-timeout 2s -retry-budget 16 -hedge-delay 50ms
//	mapc-router -replicas ... -chaos 'blackhole|net.127.0.0.1:18082|*'   # CI fault drills
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

	"mapc/internal/cluster"
	"mapc/internal/faultinject"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per replica on the hash ring")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "health probe period")
	probeTimeout := flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "per-probe deadline")
	failAfter := flag.Int("fail-after", cluster.DefaultFailAfter, "consecutive probe failures before ejection")
	reviveAfter := flag.Int("revive-after", cluster.DefaultReviveAfter, "consecutive probe successes before re-admission")
	timeout := flag.Duration("timeout", cluster.DefaultRouterTimeout, "per-request forwarding deadline")
	attemptTimeout := flag.Duration("attempt-timeout", cluster.DefaultAttemptTimeout, "per-forward deadline to a single replica; failover happens at this boundary, not -timeout")
	retryBudget := flag.Int("retry-budget", cluster.DefaultRetryBudget, "failed forward attempts (beyond each group's first try) one client request may spend before 502")
	retryBase := flag.Duration("retry-base", cluster.DefaultRetryBaseDelay, "base delay of the jittered exponential backoff between retry rounds")
	retryMax := flag.Duration("retry-max", cluster.DefaultRetryMaxDelay, "backoff delay cap")
	hedgeDelay := flag.Duration("hedge-delay", 0, "tail-latency hedge for single-bag requests: race a second replica after this delay (0 = off; each hedge spends one retry budget unit)")
	breakerCooldown := flag.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown, "how long an opened per-replica circuit breaker rejects traffic before trialling one request")
	chaos := flag.String("chaos", "", "fault-injection plan for drills: comma-separated kind|site|index[|opt=val;...] specs (site e.g. net.127.0.0.1:18082) installed on the forward and probe clients; empty = off")
	grace := flag.Duration("grace", 30*time.Second, "shutdown drain budget for in-flight requests")
	flag.Parse()

	if *replicas == "" {
		fatal(fmt.Errorf("-replicas is required (comma-separated base URLs)"))
	}
	var urls []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, strings.TrimRight(r, "/"))
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mapc-router: "+format+"\n", args...)
	}

	// With -chaos, both the forward path and the health probes go through
	// the same fault-injecting transport: a black-holed replica must look
	// dark to the prober too, or the drill would test failover against a
	// pool that still believes the replica is healthy.
	var forwardClient, probeClient *http.Client
	if *chaos != "" {
		plan, err := faultinject.ParsePlan(*chaos)
		if err != nil {
			fatal(err)
		}
		forwardClient = &http.Client{Transport: faultinject.NewTransport(cluster.ForwardTransport(), plan)}
		probeClient = &http.Client{Transport: faultinject.NewTransport(http.DefaultTransport, plan)}
		logf("CHAOS: injecting %d fault spec(s) into forward and probe clients", len(plan.Faults))
	}

	pool, err := cluster.NewPool(cluster.PoolConfig{
		Replicas:        urls,
		VirtualNodes:    *vnodes,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		FailAfter:       *failAfter,
		ReviveAfter:     *reviveAfter,
		BreakerCooldown: *breakerCooldown,
		Client:          probeClient,
		Logf:            logf,
	})
	if err != nil {
		fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Pool:           pool,
		Client:         forwardClient,
		Timeout:        *timeout,
		AttemptTimeout: *attemptTimeout,
		RetryBudget:    *retryBudget,
		RetryBaseDelay: *retryBase,
		RetryMaxDelay:  *retryMax,
		HedgeDelay:     *hedgeDelay,
		Logf:           logf,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go pool.Start(ctx)

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logf("listening on %s, routing to %d replica(s) (probe every %v, eject after %d, revive after %d, attempt %v, retry budget %d, hedge %v)",
		*addr, len(urls), *probeInterval, *failAfter, *reviveAfter, *attemptTimeout, *retryBudget, *hedgeDelay)

	select {
	case err := <-errc:
		fatal(err) // listener failed before any signal
	case <-ctx.Done():
		logf("signal received; draining in-flight requests (up to %v)...", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
		logf("drained; bye")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-router:", err)
	os.Exit(1)
}
