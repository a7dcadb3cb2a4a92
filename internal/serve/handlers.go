package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wire"
	"repro/tinygroups"
)

// keyRequest is the body of /v1/lookup and /v1/put.
type keyRequest struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"` // base64 in JSON, puts only
}

// computeRequest is the body of /v1/compute.
type computeRequest struct {
	Key   string `json:"key"`
	Input int    `json:"input"`
}

// lookupResponse reports one routed operation.
type lookupResponse struct {
	Key      string `json:"key"`
	Owner    string `json:"owner"` // suc(h(key)) as a hex point
	Hops     int    `json:"hops"`
	Messages int64  `json:"messages"`
}

// getResponse is lookupResponse plus the stored value.
type getResponse struct {
	lookupResponse
	Value []byte `json:"value"` // base64 in JSON
}

// computeResponse reports one group computation.
type computeResponse struct {
	Key      string `json:"key"`
	Group    string `json:"group"`
	Correct  bool   `json:"correct"`
	Agreed   bool   `json:"agreed"`
	Value    int    `json:"value"`
	Messages int64  `json:"messages"`
}

// healthResponse is the /healthz body. Version identifies the answering
// binary; Shard/Shards scope it within a cluster (0/1 standalone);
// Fingerprint digests the serving generation (System.Fingerprint), the
// equality the cluster determinism gate compares across shards;
// PendingEpoch reports a parked two-phase build awaiting flip.
type healthResponse struct {
	Status       string  `json:"status"`
	Version      string  `json:"version"`
	Epoch        int64   `json:"epoch"`
	N            int     `json:"n"`
	Shard        int     `json:"shard"`
	Shards       int     `json:"shards"`
	Fingerprint  string  `json:"fingerprint"`
	PendingEpoch bool    `json:"pending_epoch"`
	UptimeS      float64 `json:"uptime_s"`
	// Durable / Recovered / SnapshotEpoch report the durability layer:
	// whether a data dir is attached, whether this process restored its
	// state from disk rather than bootstrapping, and the epoch of the
	// newest on-disk snapshot (-1 when none).
	Durable       bool `json:"durable"`
	Recovered     bool `json:"recovered"`
	SnapshotEpoch int  `json:"snapshot_epoch"`
}

// routes builds the server's mux. Every endpoint speaks JSON; errors use
// the {"error","code"} envelope with the status mapping of statusOf.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lookup", s.handleLookup)
	mux.HandleFunc("/v1/put", s.handlePut)
	mux.HandleFunc("/v1/get", s.handleGet)
	mux.HandleFunc("/v1/compute", s.handleCompute)
	mux.HandleFunc("/v1/mint", s.handleMint)
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/v1/lookup/batch", s.handleLookupBatch)
	mux.HandleFunc("/v1/put/batch", s.handlePutBatch)
	mux.HandleFunc("/v1/epoch/advance", s.handleAdvance)
	mux.HandleFunc("/v1/epoch/build", s.handleEpochBuild)
	mux.HandleFunc("/v1/epoch/flip", s.handleEpochFlip)
	mux.HandleFunc("/v1/epoch/abort", s.handleEpochAbort)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// statusOf maps the tinygroups error taxonomy onto HTTP statuses and
// stable machine-readable codes. A context error means the client gave up
// before the operation ran: a write that answers "canceled" was not
// applied.
func statusOf(err error) (status int, code string) {
	switch {
	case err == nil:
		return http.StatusOK, "ok"
	case errors.Is(err, tinygroups.ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, tinygroups.ErrUnreachable):
		return http.StatusBadGateway, "unreachable"
	case errors.Is(err, tinygroups.ErrBadConfig):
		return http.StatusBadRequest, "bad_config"
	case errors.Is(err, tinygroups.ErrMintFailed):
		return http.StatusInternalServerError, "mint_failed"
	case errors.Is(err, tinygroups.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, tinygroups.ErrNoPending):
		return http.StatusConflict, "no_pending"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeJSON writes v with the given status; encoding errors are ignored
// (the connection is gone).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes err through the statusOf mapping.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	if status >= 500 {
		s.m.errors5xx.Add(1)
	} else {
		s.m.errors4xx.Add(1)
	}
	writeJSON(w, status, wire.Error{Error: err.Error(), Code: code})
}

// badRequest writes a 400 with the bad_request code.
func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.m.errors4xx.Add(1)
	writeJSON(w, http.StatusBadRequest, wire.Error{Error: msg, Code: "bad_request"})
}

// methodCheck enforces the endpoint's method, answering 405 otherwise.
func (s *Server) methodCheck(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		s.m.errors4xx.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed,
			wire.Error{Error: "use " + method, Code: "method_not_allowed"})
		return false
	}
	return true
}

// decodeBody parses the JSON request body into v, bounding its size.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// pointHex formats an ID-space point the way the CLI tables do.
func pointHex(p tinygroups.Point) string {
	return "0x" + strconv.FormatUint(uint64(p), 16)
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.lookups.Add(1)
	var req keyRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if req.Key == "" {
		s.badRequest(w, `missing "key"`)
		return
	}
	info, err := s.sys.Lookup(r.Context(), req.Key)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, lookupResponse{
		Key: req.Key, Owner: pointHex(info.Owner),
		Hops: info.Hops, Messages: info.Messages,
	})
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.puts.Add(1)
	var req keyRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if req.Key == "" {
		s.badRequest(w, `missing "key"`)
		return
	}
	info, err := s.sys.Put(r.Context(), req.Key, req.Value)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, lookupResponse{
		Key: req.Key, Owner: pointHex(info.Owner),
		Hops: info.Hops, Messages: info.Messages,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodGet) {
		return
	}
	s.m.gets.Add(1)
	key := r.URL.Query().Get("key")
	if key == "" {
		s.badRequest(w, `missing "key" query parameter`)
		return
	}
	v, info, err := s.sys.Get(r.Context(), key)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, getResponse{
		lookupResponse: lookupResponse{
			Key: key, Owner: pointHex(info.Owner),
			Hops: info.Hops, Messages: info.Messages,
		},
		Value: v,
	})
}

func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.computes.Add(1)
	var req computeRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if req.Key == "" {
		s.badRequest(w, `missing "key"`)
		return
	}
	res, err := s.sys.Compute(r.Context(), req.Key, req.Input)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, computeResponse{
		Key: req.Key, Group: pointHex(res.Group),
		Correct: res.Correct, Agreed: res.Agreed,
		Value: res.Value, Messages: res.Messages,
	})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.advances.Add(1)
	st, err := s.advanceEpoch(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodGet) {
		return
	}
	s.m.health.Add(1)
	shards := s.cfg.ShardCount
	if shards < 1 {
		shards = 1
	}
	dur := s.sys.Durability()
	h := healthResponse{
		Status:        "ok",
		Version:       s.version(),
		Epoch:         int64(s.sys.Epoch()),
		N:             s.sys.N(),
		Shard:         s.cfg.ShardIndex,
		Shards:        shards,
		Fingerprint:   s.sys.Fingerprint(),
		PendingEpoch:  s.sys.HasPendingEpoch(),
		UptimeS:       time.Since(s.start).Seconds(),
		Durable:       dur.Enabled,
		Recovered:     dur.Recovered,
		SnapshotEpoch: dur.SnapshotEpoch,
	}
	if s.draining.Load() {
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodGet) {
		return
	}
	snap := s.m.snapshot()
	snap.Epoch = int64(s.sys.Epoch())
	snap.UptimeS = time.Since(s.start).Seconds()
	snap.Mint.Work = s.sys.MintWork()
	dur := s.sys.Durability()
	snap.Durability.Enabled = dur.Enabled
	snap.Durability.Recovered = dur.Recovered
	snap.Durability.SnapshotEpoch = dur.SnapshotEpoch
	snap.Durability.SnapshotsWritten = dur.SnapshotsWritten
	snap.Durability.OplogAppends = dur.OplogAppends
	snap.Durability.ReplayedOps = dur.ReplayedOps
	snap.Durability.SkippedSnapshots = dur.SkippedSnapshots
	snap.Durability.DiscardedLogBytes = dur.DiscardedLogBytes
	snap.Durability.SnapshotFailures = dur.SnapshotFailures
	writeJSON(w, http.StatusOK, snap)
}
