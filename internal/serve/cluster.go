package serve

import (
	"net/http"
	"strconv"

	"repro/internal/wire"
	"repro/tinygroups"
)

// This file is the serve-side cluster surface: the batch endpoints the
// router scatter-gathers across shards, and the two-phase epoch endpoints
// (build / flip / abort) its coordinated advance drives. Everything here
// also works on a standalone daemon — the batch endpoints are just the
// amortized form of /v1/lookup and /v1/put, and build+flip equals advance.

// maxBatchItems caps keys per batch call; a router splitting a client
// batch across K shards sends at most this many per shard.
const maxBatchItems = 4096

// batchItemOf maps one BatchResult onto the wire shape.
func batchItemOf(key string, br tinygroups.BatchResult) wire.BatchItem {
	it := wire.BatchItem{Key: key}
	if br.Err != nil {
		_, it.Code = statusOf(br.Err)
		it.Error = br.Err.Error()
		return it
	}
	it.Code = "ok"
	it.Owner = pointHex(br.Info.Owner)
	it.Hops = br.Info.Hops
	it.Messages = br.Info.Messages
	return it
}

// splitOwned partitions keys into the owned subset (returned with its
// original indexes) and pre-fills out with wrong_shard items for the rest.
// On a standalone server every key is owned and out is untouched.
func (s *Server) splitOwned(keys []string, out []wire.BatchItem) (owned []string, idx []int) {
	if s.cfg.ShardCount <= 1 {
		return keys, nil
	}
	owned = make([]string, 0, len(keys))
	idx = make([]int, 0, len(keys))
	for i, k := range keys {
		if s.owns(tinygroups.KeyPoint(k)) {
			owned = append(owned, k)
			idx = append(idx, i)
			continue
		}
		s.m.wrongShard.Add(1)
		out[i] = wire.BatchItem{Key: k, Code: "wrong_shard", Error: errWrongShard.Error()}
	}
	return owned, idx
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
	if len(req.Keys) > maxBatchItems {
		s.badRequest(w, "more than "+strconv.Itoa(maxBatchItems)+" keys")
		return
	}
	s.m.lookupBatchedOps.Add(int64(len(req.Keys)))
	out := make([]wire.BatchItem, len(req.Keys))
	owned, idx := s.splitOwned(req.Keys, out)
	// Like single lookups, the batch resolves lock-free on the handler
	// goroutine against one pinned snapshot.
	results, err := s.sys.LookupBatch(r.Context(), owned)
	if err != nil {
		s.writeError(w, err)
		return
	}
	for j, br := range results {
		i := j
		if idx != nil {
			i = idx[j]
		}
		out[i] = batchItemOf(owned[j], br)
	}
	writeJSON(w, http.StatusOK, wire.BatchResponse{Results: out})
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
	if len(req.Pairs) > maxBatchItems {
		s.badRequest(w, "more than "+strconv.Itoa(maxBatchItems)+" pairs")
		return
	}
	keys := make([]string, len(req.Pairs))
	for i, kv := range req.Pairs {
		keys[i] = kv.Key
	}
	out := make([]wire.BatchItem, len(req.Pairs))
	owned, idx := s.splitOwned(keys, out)
	pairs := make([]tinygroups.KV, len(owned))
	for j := range owned {
		i := j
		if idx != nil {
			i = idx[j]
		}
		pairs[j] = tinygroups.KV{Key: req.Pairs[i].Key, Value: req.Pairs[i].Value}
	}
	results, err := s.sys.PutBatch(r.Context(), pairs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	for j, br := range results {
		i := j
		if idx != nil {
			i = idx[j]
		}
		out[i] = batchItemOf(owned[j], br)
	}
	writeJSON(w, http.StatusOK, wire.BatchResponse{Results: out})
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
