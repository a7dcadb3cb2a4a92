package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/tinygroups"
)

// Typed errors of the coordinated epoch advance; Advance returns errors
// wrapping one of these, and the router's HTTP surface maps them onto the
// same machine-readable codes the shard daemons use.
var (
	// ErrShardUnreachable is returned when a shard cannot be reached (or
	// answers with a non-JSON failure) for a forwarded or coordinated call.
	ErrShardUnreachable = errors.New("cluster: shard unreachable")
	// ErrBuildFailed is returned by Advance when phase 1 failed on at
	// least one shard: every shard was told to abort and NO shard flipped —
	// the old generation is still serving everywhere.
	ErrBuildFailed = errors.New("cluster: epoch build failed; no shard flipped")
	// ErrFlipFailed is returned by Advance when phase 2 failed on at least
	// one shard after every build succeeded. Shards that flipped serve the
	// new epoch; a shard that missed the flip still holds its built
	// generation and catches up on the next advance.
	ErrFlipFailed = errors.New("cluster: epoch flip failed on a shard")
)

// maxRouterBody bounds forwarded request bodies, mirroring the shard
// daemons' own limit.
const maxRouterBody = 1 << 20

// Config tunes a Router. Shards is required; everything else defaults.
type Config struct {
	// Shards lists the member daemons' base URLs in shard order:
	// Shards[i] must be the daemon started with -shard-index i. The ring
	// partition is derived from len(Shards).
	Shards []string
	// Client is the HTTP client for shard calls; defaults to a client
	// with RequestTimeout as its overall timeout.
	Client *http.Client
	// RequestTimeout bounds each forwarded shard call. Default 10s.
	RequestTimeout time.Duration
	// AdvanceTimeout bounds each per-shard phase call (build, flip,
	// abort) of a coordinated epoch advance. Builds run a full §III
	// construction, so this is the long one. Default 60s.
	AdvanceTimeout time.Duration
	// Version, when non-empty, is reported in the aggregated /healthz so
	// harness logs identify the router build.
	Version string
	// Logf, when non-nil, receives one line per lifecycle event
	// (coordinated advances, aborts). Requests are not logged.
	Logf func(format string, args ...any)
}

// Router fans a tinygroups HTTP API across a cluster of shard daemons: it
// forwards each keyed request to the shard owning the key's ring range,
// scatter-gathers batches, aggregates health and metrics, and drives the
// coordinated two-phase epoch advance. Create one with NewRouter and
// mount Handler on an http.Server.
//
// A Router is stateless apart from telemetry: placement is the pure
// ShardOf function, so any number of router instances can front the same
// shards — but concurrent coordinated advances serialize per Router only,
// so run exactly one advance driver (one router's ticker, or explicit
// /v1/epoch/advance calls against one router) per cluster.
type Router struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	// advMu serializes coordinated advances through this router.
	advMu sync.Mutex
}

// NewRouter validates cfg and builds a Router.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.AdvanceTimeout <= 0 {
		cfg.AdvanceTimeout = 60 * time.Second
	}
	r := &Router{cfg: cfg, client: cfg.Client, start: time.Now()}
	if r.client == nil {
		r.client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	r.mux = r.routes()
	return r, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Shards returns the cluster size K.
func (rt *Router) Shards() int { return len(rt.cfg.Shards) }

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lookup", rt.keyedForward(keyOfBody))
	mux.HandleFunc("/v1/put", rt.keyedForward(keyOfBody))
	mux.HandleFunc("/v1/compute", rt.keyedForward(keyOfBody))
	mux.HandleFunc("/v1/mint", rt.keyedForward(minerOfBody))
	mux.HandleFunc("/v1/get", rt.handleGet)
	mux.HandleFunc("/v1/verify", rt.handleVerify)
	mux.HandleFunc("/v1/lookup/batch", rt.handleLookupBatch)
	mux.HandleFunc("/v1/put/batch", rt.handlePutBatch)
	mux.HandleFunc("/v1/epoch/advance", rt.handleAdvance)
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeUnreachable(w http.ResponseWriter, shard int, err error) {
	writeJSON(w, http.StatusBadGateway, wire.Error{
		Error: fmt.Sprintf("shard %d: %v", shard, err),
		Code:  "shard_unreachable",
	})
}

// keyOfBody extracts the routing key of a {"key": ...} body.
func keyOfBody(body []byte) (string, error) {
	var v struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	return v.Key, nil
}

// minerOfBody extracts the routing key of a {"miner": ...} body: mint
// load follows the miner's ring point, matching the shard-side guard.
func minerOfBody(body []byte) (string, error) {
	var v struct {
		Miner string `json:"miner"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	return v.Miner, nil
}

// keyedForward builds a handler that reads the request body, extracts the
// routing key with extract, and proxies the request to the owning shard.
// An empty key is forwarded to shard 0, which answers with the daemon's
// own validation error.
func (rt *Router) keyedForward(extract func([]byte) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, wire.Error{Error: "read body: " + err.Error(), Code: "bad_request"})
			return
		}
		key, err := extract(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, wire.Error{Error: "bad JSON body: " + err.Error(), Code: "bad_request"})
			return
		}
		shard := 0
		if key != "" {
			shard = OwnerOf(key, rt.Shards())
		}
		rt.proxy(w, r, shard, body)
	}
}

// handleGet routes /v1/get by its key query parameter.
func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	shard := 0
	if key := r.URL.Query().Get("key"); key != "" {
		shard = OwnerOf(key, rt.Shards())
	}
	rt.proxy(w, r, shard, nil)
}

// handleVerify forwards claim verification to shard 0: verification is a
// pure function of the shared epoch state, so every shard answers
// identically and no split is needed.
func (rt *Router) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: "read body: " + err.Error(), Code: "bad_request"})
		return
	}
	rt.proxy(w, r, 0, body)
}

// proxy forwards r (with body, when non-nil) to the given shard and
// copies the shard's response verbatim — status, content type, body — so
// the client sees exactly what the owning daemon answered. Transport
// failures map to the typed 502 shard_unreachable.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, shard int, body []byte) {
	url := rt.cfg.Shards[shard] + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		rt.writeUnreachable(w, shard, err)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.writeUnreachable(w, shard, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// postShard POSTs a JSON body to one shard and decodes the response into
// out. Non-2xx answers decode the shard's error envelope and surface as
// an error wrapping ErrShardUnreachable (transport) or carrying the
// shard's code (typed refusal).
func (rt *Router) postShard(ctx context.Context, shard int, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.cfg.Shards[shard]+path, rd)
	if err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrShardUnreachable, shard, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrShardUnreachable, shard, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRouterBody))
	if err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrShardUnreachable, shard, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e wire.Error
		if json.Unmarshal(data, &e) == nil && e.Code != "" {
			return fmt.Errorf("shard %d: %s (%s)", shard, e.Error, e.Code)
		}
		return fmt.Errorf("%w: shard %d: status %d", ErrShardUnreachable, shard, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%w: shard %d: bad response: %v", ErrShardUnreachable, shard, err)
		}
	}
	return nil
}

// eachShard runs fn(shard) concurrently for every shard and returns the
// per-shard errors (nil entries for successes).
func (rt *Router) eachShard(fn func(shard int) error) []error {
	errs := make([]error, rt.Shards())
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// Advance drives one coordinated two-phase epoch advance across every
// shard. Phase 1 tells all shards concurrently to build their upcoming
// generation — reads keep serving the pinned old epoch everywhere. Only
// if every build succeeds does phase 2 flip all shards together. On any
// phase-1 failure every shard is told to abort (rewinding its build
// randomness, so the retried round replays identically) and Advance
// returns an error wrapping ErrBuildFailed: no shard flipped, the old
// generation is live everywhere. Each per-shard phase call is bounded by
// Config.AdvanceTimeout.
//
// The returned Stats are the committed epoch's construction statistics
// (identical on every shard — the generations are replicas).
func (rt *Router) Advance(ctx context.Context) (tinygroups.Stats, error) {
	rt.advMu.Lock()
	defer rt.advMu.Unlock()

	phase := func(path string, outs []tinygroups.Stats) []error {
		return rt.eachShard(func(i int) error {
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.AdvanceTimeout)
			defer cancel()
			// out must stay an untyped nil when no stats are wanted — a
			// typed-nil *Stats inside the any parameter would make postShard
			// try to unmarshal into it.
			var out any
			if outs != nil {
				out = &outs[i]
			}
			return rt.postShard(pctx, i, path, struct{}{}, out)
		})
	}

	// Phase 1: build everywhere.
	if errs := phase("/v1/epoch/build", nil); anyErr(errs) != nil {
		first := anyErr(errs)
		rt.logf("cluster: epoch build failed (%v); aborting all shards", first)
		// Best-effort coordinated abort: every shard discards its parked
		// build (a no-op on shards whose build already failed), so the next
		// round replays identically everywhere.
		abortErrs := rt.eachShard(func(i int) error {
			pctx, cancel := context.WithTimeout(context.Background(), rt.cfg.AdvanceTimeout)
			defer cancel()
			return rt.postShard(pctx, i, "/v1/epoch/abort", struct{}{}, nil)
		})
		if aerr := anyErr(abortErrs); aerr != nil {
			rt.logf("cluster: abort incomplete: %v", aerr)
		}
		return tinygroups.Stats{}, fmt.Errorf("%w: %v", ErrBuildFailed, first)
	}

	// Phase 2: flip everywhere.
	stats := make([]tinygroups.Stats, rt.Shards())
	if errs := phase("/v1/epoch/flip", stats); anyErr(errs) != nil {
		first := anyErr(errs)
		rt.logf("cluster: epoch flip failed: %v", first)
		return tinygroups.Stats{}, fmt.Errorf("%w: %v", ErrFlipFailed, first)
	}
	rt.logf("cluster: epoch %d flipped on %d shards (n=%d)", stats[0].Epoch, rt.Shards(), stats[0].N)
	return stats[0], nil
}

// handleAdvance exposes the coordinated advance at the router, replacing
// the shard-local /v1/epoch/advance for cluster clients.
func (rt *Router) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "use POST", Code: "method_not_allowed"})
		return
	}
	st, err := rt.Advance(r.Context())
	if err != nil {
		code := "shard_unreachable"
		if errors.Is(err, ErrBuildFailed) {
			code = "epoch_build_failed"
		} else if errors.Is(err, ErrFlipFailed) {
			code = "epoch_flip_failed"
		}
		writeJSON(w, http.StatusBadGateway, wire.Error{Error: err.Error(), Code: code})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// anyErr returns the first non-nil error, joined with how many failed.
func anyErr(errs []error) error {
	var first error
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
			if first == nil {
				first = e
			}
		}
	}
	if first == nil {
		return nil
	}
	if failed > 1 {
		return fmt.Errorf("%d shards failed; first: %w", failed, first)
	}
	return first
}
