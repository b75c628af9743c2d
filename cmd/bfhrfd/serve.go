package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/newick"
	"repro/internal/serve"
)

// Serve mode (-serve-http) turns bfhrfd from a one-shot batch job into a
// long-lived, multi-tenant query service: snapshot collections are
// loaded once into a catalog and answered over POST /v1/query on the
// admin listener, behind the internal/serve admission layer. Two
// shapes exist: standalone (no -workers; every collection is a local
// bfhsnap store from -collections / -collections-root) and
// coordinator-backed (-workers; the sharded cluster loaded via -ref or
// -load-bfh is registered under -collection-name, optionally alongside
// local manifest collections). See "Serving queries over HTTP" in
// README.md.

// serveConfig bundles the serve-mode flag values.
type serveConfig struct {
	manifest, root, collectionName string
	maxInflight, queueDepth        int
	tenantRate, tenantBurst        float64
	requestMaxBytes                int64
	queryDeadline, drainTimeout    time.Duration
	maxTaxa, maxTreeBytes          int
}

// service builds the query service over cat.
func (cfg serveConfig) service(cat *serve.Catalog) *serve.Service {
	return serve.New(serve.Config{
		Admission: serve.AdmissionConfig{
			MaxInflight: cfg.maxInflight,
			QueueDepth:  cfg.queueDepth,
			TenantRate:  cfg.tenantRate,
			TenantBurst: cfg.tenantBurst,
		},
		MaxBodyBytes:    cfg.requestMaxBytes,
		DefaultDeadline: cfg.queryDeadline,
		Limits:          newick.Limits{MaxTaxa: cfg.maxTaxa, MaxTreeBytes: cfg.maxTreeBytes},
	}, cat)
}

// runServeStandalone serves local snapshot collections with no worker
// cluster: open the manifest's stores, mount the query API on the admin
// listener, and run until a signal drains the service.
func runServeStandalone(adminAddr string, cfg serveConfig) int {
	cat := serve.NewCatalog(cfg.root, 0)
	defer cat.Close()
	if cfg.manifest != "" {
		if err := cat.LoadManifest(cfg.manifest); err != nil {
			return fail(err)
		}
	}
	svc := cfg.service(cat)
	adm, err := startAdmin(adminAddr, svc.WrapHealthz(standaloneHealthz(cat)), svc.Register)
	if err != nil {
		return fail(err)
	}
	defer adm.Shutdown() //nolint:errcheck — best-effort drain on exit
	// Catch signals before announcing readiness: a supervisor may signal
	// as soon as it reads the lines below.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Fprintf(os.Stderr, "bfhrfd: admin serving on %s\n", adm.Addr())
	fmt.Fprintf(os.Stderr, "bfhrfd: serving %d collection(s) over HTTP\n", len(cat.List()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	soft := make(chan struct{})
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bfhrfd: %s: draining — finishing in-flight queries (signal again to abort)\n", s)
		close(soft)
		<-sig
		cancel()
	}()
	return serveWait(ctx, svc, soft, cfg.drainTimeout)
}

// serveWait blocks until the first signal (soft closes), drains the
// service, and returns the exit code: 0 for a clean drain, 1 when the
// drain timed out, 130 when a second signal aborted the wait.
func serveWait(ctx context.Context, svc *serve.Service, soft <-chan struct{}, timeout time.Duration) int {
	select {
	case <-soft:
	case <-ctx.Done():
		// Hard-canceled before any drain request (e.g. during startup).
		return 130
	}
	drained := make(chan bool, 1)
	go func() { drained <- svc.Drain(timeout) }()
	select {
	case ok := <-drained:
		if !ok {
			fmt.Fprintf(os.Stderr, "bfhrfd: drain timed out after %s with queries still in flight\n", timeout)
			return 1
		}
		fmt.Fprintln(os.Stderr, "bfhrfd: drained, exiting")
		return 0
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "bfhrfd: aborting with queries in flight")
		return 130
	}
}

// standaloneHealthz reports readiness of a standalone query service:
// the catalog size (an empty catalog still answers ok — collections can
// be registered over /v1/collections afterwards).
func standaloneHealthz(cat *serve.Catalog) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","collections":%d}`+"\n", len(cat.List()))
	}
}

// drainingHealthz reports "draining" (503) once d is set, so load
// balancers stop routing to a batch coordinator that is finishing up;
// otherwise it defers to the mode-specific handler. (Serve mode uses
// serve.Service.WrapHealthz instead, which keys off the service's own
// drain state.)
func drainingHealthz(d *atomic.Bool, inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"draining"}`+"\n")
			return
		}
		inner(w, r)
	}
}
