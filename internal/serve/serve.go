// Package serve turns a bfhrfd process into a long-lived, multi-tenant
// query service: a catalog of named, versioned reference collections
// (each a pinned bfhsnap epoch served in-process, or the shards behind a
// distrib coordinator), an HTTP/JSON query API mounted on the admin
// listener, and an admission layer — bounded queue, concurrency
// limiter, per-tenant token buckets — that sheds overload in O(1) with
// 429/503 + Retry-After instead of queueing or parsing its way to an
// OOM. SIGTERM drains gracefully: admission stops, /healthz reports
// "draining", in-flight queries finish, then the process exits. See
// "Serving queries over HTTP" in README.md and "Admission and overload"
// in ARCHITECTURE.md.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/newick"
	"repro/internal/obs"
)

// Config sizes one Service. The zero value applies the documented
// defaults.
type Config struct {
	// Admission sizes the front door.
	Admission AdmissionConfig
	// MaxBodyBytes caps a request body (default 1 MiB). Larger bodies
	// get 413 before the surplus is read.
	MaxBodyBytes int64
	// MaxTrees caps query trees per request (default 1024).
	MaxTrees int
	// DefaultDeadline bounds each admitted request end to end, waiting
	// included; it propagates into the scatter RPCs of distributed
	// collections (default 30s).
	DefaultDeadline time.Duration
	// Limits harden per-tree parsing (0 = unlimited, matching ingest).
	Limits newick.Limits
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 20
}

func (c Config) maxTrees() int {
	if c.MaxTrees > 0 {
		return c.MaxTrees
	}
	return 1024
}

func (c Config) deadline() time.Duration {
	if c.DefaultDeadline > 0 {
		return c.DefaultDeadline
	}
	return 30 * time.Second
}

// Service is the HTTP query service: catalog + admission + drain state.
type Service struct {
	cfg Config
	cat *Catalog
	adm *Admission

	// mu guards the drain handshake: begin() refuses new work once
	// draining is set, and Drain waits for active to hit zero.
	mu       sync.Mutex
	draining bool
	active   sync.WaitGroup
}

// New builds a Service over catalog cat.
func New(cfg Config, cat *Catalog) *Service {
	return &Service{cfg: cfg, cat: cat, adm: NewAdmission(cfg.Admission)}
}

// Catalog returns the serving catalog.
func (s *Service) Catalog() *Catalog { return s.cat }

// Admission returns the admission layer (tests size their bursts off
// its capacity).
func (s *Service) Admission() *Admission { return s.adm }

// Register mounts the service's routes on mux.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/collections", s.handleCollections)
}

// begin registers one unit of in-flight work unless the service is
// draining. Every true return must be paired with one end().
func (s *Service) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active.Add(1)
	return true
}

// end retires one unit of in-flight work.
func (s *Service) end() { s.active.Done() }

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission (every subsequent request is shed with 503
// "draining") and waits up to timeout for in-flight requests to finish.
// It returns true when the service drained cleanly, false on timeout
// with work still in flight. Idempotent.
func (s *Service) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// WrapHealthz layers the drain state over a mode-specific health
// handler: while draining, /healthz answers 503 {"status":"draining"}
// so load balancers stop routing before the listener goes away.
func (s *Service) WrapHealthz(inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"draining"}`+"\n")
			return
		}
		inner(w, r)
	}
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Collection names the catalog entry to query.
	Collection string `json:"collection"`
	// Variant is plain (default) | normalized | weighted.
	Variant string `json:"variant"`
	// Trees are the Newick query trees.
	Trees []string `json:"trees"`
}

// queryResult is one tree's answer.
type queryResult struct {
	// Index is the tree's position in the request.
	Index int `json:"index"`
	// AvgRF is the average distance to the reference collection.
	AvgRF float64 `json:"avg_rf"`
}

// queryResponse is the POST /v1/query success body.
type queryResponse struct {
	// Collection echoes the queried catalog entry.
	Collection string `json:"collection"`
	// Epoch is the snapshot epoch that answered (0 if not epoch-backed).
	Epoch int `json:"epoch"`
	// Variant echoes the RF flavour served.
	Variant string `json:"variant"`
	// Coverage is the fraction of reference trees behind the answer.
	Coverage float64 `json:"coverage"`
	// Results are the per-tree averages, in request order.
	Results []queryResult `json:"results"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	// Error describes the failure.
	Error string `json:"error"`
}

// parseVariant maps the wire name to a core.Variant.
func parseVariant(s string) (core.Variant, error) {
	switch s {
	case "", "plain":
		return core.Plain, nil
	case "normalized":
		return core.Normalized, nil
	case "weighted":
		return core.Weighted, nil
	default:
		return 0, fmt.Errorf("serve: unknown variant %q (want plain, normalized or weighted)", s)
	}
}

// reply writes a JSON response and counts it in bfhrf_requests_total.
func reply(w http.ResponseWriter, code int, body any) {
	requestsTotal(code).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(body) //nolint:errcheck — a dead client is its own problem
}

// replyErr writes an error body.
func replyErr(w http.ResponseWriter, code int, format string, args ...any) {
	reply(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// shed rejects a request with Retry-After, counting the shed. This is
// the O(1) path: no body bytes have been read when it runs.
func shed(w http.ResponseWriter, sd *Shed) {
	requestsShed(sd.Reason).Inc()
	w.Header().Set("Retry-After", RetryAfterSeconds(sd.RetryAfter))
	replyErr(w, sd.Status, "overloaded: %s", sd.Reason)
}

// handleQuery serves POST /v1/query.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		replyErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Order matters, cheapest first: drain gate, tenant validation, rate
	// limit, queue reservation — all before the first body byte.
	if !s.begin() {
		shed(w, &Shed{Status: 503, Reason: shedDraining, RetryAfter: time.Second})
		return
	}
	defer s.end()
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if !ValidName(tenant) {
		replyErr(w, http.StatusBadRequest, "invalid X-Tenant (want 1..%d chars of [A-Za-z0-9_.-], no leading . or -)", nameMaxLen)
		return
	}
	if err := faultinject.Hit(faultinject.PointServeAdmit); err != nil {
		shed(w, &Shed{Status: 503, Reason: shedFault, RetryAfter: time.Second})
		return
	}
	release, sd := s.adm.Admit(tenant)
	if sd != nil {
		shed(w, sd)
		return
	}
	defer release()
	start := time.Now()
	defer func() { requestDuration().Observe(time.Since(start).Seconds()) }()

	// The one place the per-request deadline is minted; it propagates
	// from here into local query cancellation and distributed scatter
	// RPCs alike.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.deadline())
	defer cancel()
	if err := s.adm.Acquire(ctx); err != nil {
		replyErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.adm.ReleaseExec()

	req, trees, code, err := s.decodeQuery(w, r)
	if err != nil {
		replyErr(w, code, "%v", err)
		return
	}
	v, err := parseVariant(req.Variant)
	if err != nil {
		replyErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	backend, ok := s.cat.Get(req.Collection)
	if !ok {
		replyErr(w, http.StatusNotFound, "unknown collection %q", req.Collection)
		return
	}
	if err := faultinject.Hit(faultinject.PointServeQuery); err != nil {
		replyErr(w, http.StatusBadGateway, "%v", err)
		return
	}
	qctx, span := obs.StartSpan(ctx, "serve.query")
	if span.Recorded() {
		span.SetAttr("collection", req.Collection)
		span.SetAttr("tenant", tenant)
		span.SetAttr("trees", len(trees))
	}
	ans, err := backend.Query(qctx, trees, v)
	span.End()
	if err != nil {
		replyErr(w, httpStatusOf(err, http.StatusBadGateway), "%v", err)
		return
	}
	resp := queryResponse{
		Collection: req.Collection,
		Epoch:      ans.Epoch,
		Variant:    v.String(),
		Coverage:   ans.Coverage,
		Results:    make([]queryResult, len(ans.Results)),
	}
	for i, res := range ans.Results {
		resp.Results[i] = queryResult{Index: res.Index, AvgRF: res.AvgRF}
	}
	reply(w, http.StatusOK, resp)
}

// collectionsRequest is the POST /v1/collections body: register (or
// refresh) a local snapshot store.
type collectionsRequest struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// Dir is the bfhsnap store directory ("" resolves against the
	// catalog root).
	Dir string `json:"dir"`
}

// handleCollections serves GET (list) and POST (register/refresh) on
// /v1/collections.
func (s *Service) handleCollections(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		reply(w, http.StatusOK, s.cat.List())
	case http.MethodPost:
		if !s.begin() {
			shed(w, &Shed{Status: 503, Reason: shedDraining, RetryAfter: time.Second})
			return
		}
		defer s.end()
		body := http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
		var req collectionsRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			replyErr(w, http.StatusBadRequest, "malformed JSON: %v", err)
			return
		}
		st, err := s.cat.OpenDir(req.Name, req.Dir)
		if err != nil {
			replyErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		reply(w, http.StatusOK, st)
	default:
		replyErr(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}
