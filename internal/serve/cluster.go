package serve

import (
	"net/http"

	"repro/internal/wire"
	"repro/tinygroups"
)

// This file is the serve-side cluster surface: the batch endpoints and
// the two-phase epoch endpoints (build / flip / abort) the router's
// coordinated advance drives. Everything here also works on a standalone
// daemon — the batch endpoints are just the amortized form of /v1/lookup
// and /v1/put, and build+flip equals advance.

// batchResponseOf maps per-key results, in request order, onto the wire
// shape.
func batchResponseOf(results []tinygroups.BatchResult, keyOf func(i int) string) wire.BatchResponse {
	out := make([]wire.BatchItem, len(results))
	for i, br := range results {
		it := wire.BatchItem{Key: keyOf(i), Code: "ok"}
		if br.Err != nil {
			_, it.Code = statusOf(br.Err)
			it.Error = br.Err.Error()
		} else {
			it.Owner = pointHex(br.Info.Owner)
			it.Hops = br.Info.Hops
			it.Messages = br.Info.Messages
		}
		out[i] = it
	}
	return wire.BatchResponse{Results: out}
}

func (s *Server) handleLookupBatch(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.lookupBatches.Add(1)
	var req wire.LookupBatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Keys) == 0 {
		s.badRequest(w, `missing "keys"`)
		return
	}
	if len(req.Keys) > wire.MaxBatchItems {
		s.badRequest(w, wire.OverBatchLimit("keys"))
		return
	}
	s.m.lookupBatchedOps.Add(int64(len(req.Keys)))
	// Like single lookups, the batch resolves lock-free on the handler
	// goroutine against one pinned snapshot.
	results, err := s.sys.LookupBatch(r.Context(), req.Keys)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponseOf(results, func(i int) string { return req.Keys[i] }))
}

func (s *Server) handlePutBatch(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.putBatchCalls.Add(1)
	var req wire.PutBatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Pairs) == 0 {
		s.badRequest(w, `missing "pairs"`)
		return
	}
	if len(req.Pairs) > wire.MaxBatchItems {
		s.badRequest(w, wire.OverBatchLimit("pairs"))
		return
	}
	pairs := make([]tinygroups.KV, len(req.Pairs))
	for i, kv := range req.Pairs {
		pairs[i] = tinygroups.KV(kv)
	}
	results, err := s.sys.PutBatch(r.Context(), pairs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponseOf(results, func(i int) string { return pairs[i].Key }))
}

// abortResponse is the /v1/epoch/abort body.
type abortResponse struct {
	Aborted bool `json:"aborted"`
}

// handleEpochBuild is phase one of the coordinated advance: construct the
// upcoming generation off to the side and park it. Reads keep serving the
// current epoch; nothing flips until /v1/epoch/flip.
func (s *Server) handleEpochBuild(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.epochBuilds.Add(1)
	st, err := s.sys.BuildEpoch(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEpochFlip is phase two: commit the parked generation as the
// serving one. With nothing parked it answers a typed 409 ("no_pending").
func (s *Server) handleEpochFlip(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.epochFlips.Add(1)
	st, err := s.sys.CommitEpoch()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.m.epochsAdvanced.Add(1)
	writeJSON(w, http.StatusOK, st)
}

// handleEpochAbort discards a parked build, rewinding the construction
// randomness so the retried round replays identically. Aborting with
// nothing parked reports aborted=false, not an error — the router aborts
// every shard after a partial phase-1 failure without tracking which
// shards got as far as building.
func (s *Server) handleEpochAbort(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.epochAborts.Add(1)
	aborted, err := s.sys.AbortEpoch()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, abortResponse{Aborted: aborted})
}
