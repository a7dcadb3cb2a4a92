// Package cluster fronts a set of tinygroupsd replicas with one router.
//
// # Replicas
//
// Every daemon of a cluster runs the full deterministic construction on
// the same (n, seed): the epoch generations are byte-identical replicas,
// and a read — lookup, get, compute, mint, verify — is a pure function of
// (seed, epoch, key) that any replica answers with the same bytes. So the
// router sends each read to one replica, round-robin, and each write to
// every replica. It sequences writes and coordinated epoch advances under
// one mutex, so every replica applies the same writes, in the same order,
// at the same epoch, and every replica's store is complete.
//
// # Epochs
//
// The coordinated two-phase epoch advance (Router.Advance) keeps the
// replicas in lockstep: all of them build the upcoming generation first,
// and flip together only once every build succeeded — an abort leaves the
// old generation live everywhere, and the epoch layer's rng rewind makes
// the retried build byte-identical on every replica.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
	"repro/tinygroups"
)

// Errors of the coordinated epoch advance. The router's HTTP surface maps
// them onto the machine-readable codes clients branch on —
// shard_unreachable, epoch_build_failed and epoch_flip_failed — the same
// codes the shard daemons use.
var (
	// errShardUnreachable is returned when a shard cannot be reached (or
	// answers with a non-JSON failure) for a forwarded or coordinated call.
	errShardUnreachable = errors.New("cluster: shard unreachable")
	// errBuildFailed is returned by Advance when phase 1 failed on at
	// least one shard: every shard was told to abort and NO shard flipped —
	// the old generation is still serving everywhere.
	errBuildFailed = errors.New("cluster: epoch build failed; no shard flipped")
	// errFlipFailed is returned by Advance when phase 2 failed on at least
	// one shard after every build succeeded. Shards that flipped serve the
	// new epoch; a shard that missed the flip still holds its built
	// generation and catches up on the next advance.
	errFlipFailed = errors.New("cluster: epoch flip failed on a shard")
)

// Config tunes a Router. Shards is required; everything else defaults.
type Config struct {
	// Shards lists the replica daemons' base URLs. The index of a URL
	// names its replica in /healthz, /metrics and error messages; every
	// replica answers every request.
	Shards []string
	// Client is the HTTP client for shard calls; defaults to
	// http.DefaultClient. RequestTimeout and AdvanceTimeout bound each
	// call, so a client with an overall Timeout of its own caps both.
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

// Router fronts a cluster of replica daemons: it sends each read to one
// replica, fans each write out to every replica, aggregates health and
// metrics, and drives the coordinated two-phase epoch advance. Create one
// with NewRouter and mount Handler on an http.Server.
//
// The Router is the cluster's write sequencer, so run exactly one per
// cluster: two routers could deliver their writes to different replicas
// in different orders. Routed write capacity is one write in flight per
// cluster, which is what one daemon's writer lock already allows.
type Router struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	// next is the read path's round-robin cursor.
	next atomic.Uint64
	// seq is held across each write's fan-out and each coordinated
	// advance, so every replica applies the same writes, in the same
	// order, at the same epoch.
	seq sync.Mutex
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
		r.client = http.DefaultClient
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
	post, get := http.MethodPost, http.MethodGet
	mux := http.NewServeMux()
	for _, path := range []string{"/v1/lookup", "/v1/compute", "/v1/mint", "/v1/verify", "/v1/lookup/batch"} {
		mux.HandleFunc(path, only(post, rt.read))
	}
	mux.HandleFunc("/v1/get", only(get, rt.read))
	mux.HandleFunc("/v1/put", only(post, rt.write))
	mux.HandleFunc("/v1/put/batch", only(post, rt.write))
	mux.HandleFunc("/v1/epoch/advance", only(post, rt.handleAdvance))
	mux.HandleFunc("/healthz", only(get, rt.handleHealth))
	mux.HandleFunc("/metrics", only(get, rt.handleMetrics))
	return mux
}

// only admits requests of one method and answers any other with the same
// 405 a standalone daemon gives, byte for byte.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "use " + method, Code: "method_not_allowed"})
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody reads at most wire.MaxBodyBytes+1 bytes of the request body:
// one byte past the cap is enough for a replica to refuse an oversized
// body with its own 400, which the router relays byte for byte.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, wire.MaxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: "read body: " + err.Error(), Code: "bad_request"})
		return nil, false
	}
	return body, true
}

// reply is one replica's whole answer to a call.
type reply struct {
	status int
	ct     string
	body   []byte
}

// relay copies a replica's answer — status, content type, body — to w.
func (rp reply) relay(w http.ResponseWriter) {
	if rp.ct != "" {
		w.Header().Set("Content-Type", rp.ct)
	}
	w.WriteHeader(rp.status)
	_, _ = w.Write(rp.body)
}

// call sends one request to a shard, bounded by timeout, and reads its
// whole answer. An error wraps errShardUnreachable: the shard could not be
// reached, or its answer could not be read.
func (rt *Router) call(ctx context.Context, timeout time.Duration, shard int, method, target string, body []byte) (reply, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, rt.cfg.Shards[shard]+target, bytes.NewReader(body))
	if err == nil {
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		var resp *http.Response
		if resp, err = rt.client.Do(req); err == nil {
			defer resp.Body.Close()
			var data []byte
			if data, err = io.ReadAll(resp.Body); err == nil {
				return reply{status: resp.StatusCode, ct: resp.Header.Get("Content-Type"), body: data}, nil
			}
		}
	}
	return reply{}, fmt.Errorf("%w: shard %d: %v", errShardUnreachable, shard, err)
}

// read forwards a read verbatim to one replica, picked round-robin, and
// relays its answer. Only a replica that cannot be reached hands the read
// on to the next; 502 shard_unreachable means no replica answered.
func (rt *Router) read(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	k := uint64(rt.Shards())
	first := rt.next.Add(1)
	var err error
	for i := uint64(0); i < k; i++ {
		var rp reply
		if rp, err = rt.call(r.Context(), rt.cfg.RequestTimeout, int((first+i)%k), r.Method, r.URL.RequestURI(), body); err == nil {
			rp.relay(w)
			return
		}
	}
	writeJSON(w, http.StatusBadGateway, wire.Error{Error: err.Error(), Code: "shard_unreachable"})
}

// write forwards a write verbatim to every replica under seq, and relays
// the answer when every replica gave the same status and bytes. Otherwise
// it answers 502: shard_unreachable when a replica could not be reached,
// replicas_diverged when the answers differ. Either way the write may
// already be applied on the replicas that answered; a put is an
// idempotent overwrite, so retrying it converges them.
//
// The fan-out does not follow the client's cancellation, so a client that
// gives up mid-write cannot leave it applied on some replicas only. A
// client that gives up while its write waits for seq gets 504 canceled,
// and the write is applied nowhere.
func (rt *Router) write(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	rt.seq.Lock()
	defer rt.seq.Unlock()
	if err := r.Context().Err(); err != nil {
		writeJSON(w, http.StatusGatewayTimeout, wire.Error{Error: err.Error(), Code: "canceled"})
		return
	}
	ctx := context.WithoutCancel(r.Context())
	replies := make([]reply, rt.Shards())
	if err := anyErr(rt.eachShard(func(i int) (err error) {
		replies[i], err = rt.call(ctx, rt.cfg.RequestTimeout, i, r.Method, r.URL.RequestURI(), body)
		return err
	})); err != nil {
		writeJSON(w, http.StatusBadGateway, wire.Error{Error: err.Error(), Code: "shard_unreachable"})
		return
	}
	for i, rp := range replies {
		if rp.status != replies[0].status || !bytes.Equal(rp.body, replies[0].body) {
			writeJSON(w, http.StatusBadGateway, wire.Error{
				Error: fmt.Sprintf("cluster: shard %d answered %d, shard 0 answered %d; the write may be applied on some replicas", i, rp.status, replies[0].status),
				Code:  "replicas_diverged",
			})
			return
		}
	}
	replies[0].relay(w)
}

// phase posts one step of the coordinated advance to a shard, bounded by
// AdvanceTimeout, and decodes its 200 answer into out when out is non-nil.
// A shard's typed refusal comes back as an error carrying its code.
func (rt *Router) phase(ctx context.Context, shard int, path string, out any) error {
	rp, err := rt.call(ctx, rt.cfg.AdvanceTimeout, shard, http.MethodPost, path, nil)
	if err != nil {
		return err
	}
	if rp.status != http.StatusOK {
		var e wire.Error
		if json.Unmarshal(rp.body, &e) == nil && e.Code != "" {
			return fmt.Errorf("shard %d: %s (%s)", shard, e.Error, e.Code)
		}
		return fmt.Errorf("%w: shard %d: status %d", errShardUnreachable, shard, rp.status)
	}
	if out != nil {
		if err := json.Unmarshal(rp.body, out); err != nil {
			return fmt.Errorf("%w: shard %d: bad response: %v", errShardUnreachable, shard, err)
		}
	}
	return nil
}

// eachShard runs fn(shard) concurrently for every shard and returns the
// per-shard errors (nil entries for successes).
func (rt *Router) eachShard(fn func(shard int) error) []error {
	errs := make([]error, rt.Shards())
	engine.ForEach(len(errs), len(errs), func(_, i int) { errs[i] = fn(i) })
	return errs
}

// Advance drives one coordinated two-phase epoch advance across every
// shard. Phase 1 tells all shards concurrently to build their upcoming
// generation — reads keep serving the pinned old epoch everywhere. Only
// if every build succeeds does phase 2 flip all shards together. On any
// phase-1 failure every shard is told to abort (rewinding its build
// randomness, so the retried round replays identically) and Advance
// returns an epoch_build_failed error: no shard flipped, the old
// generation is live everywhere. Each per-shard phase call is bounded by
// Config.AdvanceTimeout. Advance holds the write sequencer, so no routed
// write lands between the phases.
//
// The returned Stats are the committed epoch's construction statistics
// (identical on every shard — the generations are replicas).
func (rt *Router) Advance(ctx context.Context) (tinygroups.Stats, error) {
	rt.seq.Lock()
	defer rt.seq.Unlock()

	// Phase 1: build everywhere.
	if err := anyErr(rt.eachShard(func(i int) error { return rt.phase(ctx, i, "/v1/epoch/build", nil) })); err != nil {
		rt.logf("cluster: epoch build failed (%v); aborting all shards", err)
		// Best-effort coordinated abort: every shard discards its parked
		// build (a no-op on shards whose build already failed), so the next
		// round replays identically everywhere.
		if aerr := anyErr(rt.eachShard(func(i int) error {
			return rt.phase(context.Background(), i, "/v1/epoch/abort", nil)
		})); aerr != nil {
			rt.logf("cluster: abort incomplete: %v", aerr)
		}
		return tinygroups.Stats{}, fmt.Errorf("%w: %v", errBuildFailed, err)
	}

	// Phase 2: flip everywhere.
	stats := make([]tinygroups.Stats, rt.Shards())
	if err := anyErr(rt.eachShard(func(i int) error { return rt.phase(ctx, i, "/v1/epoch/flip", &stats[i]) })); err != nil {
		rt.logf("cluster: epoch flip failed: %v", err)
		return tinygroups.Stats{}, fmt.Errorf("%w: %v", errFlipFailed, err)
	}
	rt.logf("cluster: epoch %d flipped on %d shards (n=%d)", stats[0].Epoch, rt.Shards(), stats[0].N)
	return stats[0], nil
}

// handleAdvance exposes the coordinated advance at the router, replacing
// the shard-local /v1/epoch/advance for cluster clients.
func (rt *Router) handleAdvance(w http.ResponseWriter, r *http.Request) {
	st, err := rt.Advance(r.Context())
	if err != nil {
		code := "shard_unreachable"
		if errors.Is(err, errBuildFailed) {
			code = "epoch_build_failed"
		} else if errors.Is(err, errFlipFailed) {
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

// OwnerOf returns floor(KeyPoint(key)·shards / 2^64): the index of the
// shard whose contiguous, equal-width range of the ring holds key's point.
// Nothing in the cluster routes by it, since every replica answers every
// key; the benchmark times it as the cost of a ring-range routing rule.
// shards must be positive; a one-shard cluster owns everything.
func OwnerOf(key string, shards int) int {
	return shardOf(tinygroups.KeyPoint(key), shards)
}

// shardOf returns floor(p·shards / 2^64), the shard whose range holds p.
func shardOf(p tinygroups.Point, shards int) int {
	if shards <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(uint64(p), uint64(shards))
	return int(hi)
}
