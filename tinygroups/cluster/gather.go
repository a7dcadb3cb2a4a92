package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
)

// This file is the router's scatter-gather plane: batches split per
// owning shard and merge back in request order; health and metrics
// aggregate across every member.

// scatter fans per-shard sub-batches out concurrently and merges the
// per-key results back into request order. keys[i] decides the owning
// shard of item i; send(shard, indexes) posts that shard's sub-batch and
// returns its items in sub-batch order. A failed shard marks its items
// shard_unreachable instead of failing the whole batch — per-key degraded
// results, matching the daemons' own per-item error model.
func (rt *Router) scatter(keys []string, send func(shard int, idx []int) ([]wire.BatchItem, error)) []wire.BatchItem {
	byShard := make([][]int, rt.Shards())
	for i, k := range keys {
		s := OwnerOf(k, rt.Shards())
		byShard[s] = append(byShard[s], i)
	}
	out := make([]wire.BatchItem, len(keys))
	rt.eachShard(func(s int) error {
		idx := byShard[s]
		if len(idx) == 0 {
			return nil
		}
		items, err := send(s, idx)
		if err != nil || len(items) != len(idx) {
			for _, i := range idx {
				msg := "sub-batch size mismatch"
				if err != nil {
					msg = err.Error()
				}
				out[i] = wire.BatchItem{Key: keys[i], Code: "shard_unreachable", Error: msg}
			}
			return nil
		}
		for j, i := range idx {
			out[i] = items[j]
		}
		return nil
	})
	return out
}

func (rt *Router) handleLookupBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.LookupBatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouterBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: "bad JSON body: " + err.Error(), Code: "bad_request"})
		return
	}
	if len(req.Keys) == 0 {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: `missing "keys"`, Code: "bad_request"})
		return
	}
	if len(req.Keys) > wire.MaxBatchItems {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: wire.OverBatchLimit("keys"), Code: "bad_request"})
		return
	}
	ctx := r.Context()
	out := rt.scatter(req.Keys, func(shard int, idx []int) ([]wire.BatchItem, error) {
		sub := make([]string, len(idx))
		for j, i := range idx {
			sub[j] = req.Keys[i]
		}
		var resp wire.BatchResponse
		if err := rt.postShard(ctx, shard, "/v1/lookup/batch",
			wire.LookupBatchRequest{Keys: sub}, &resp); err != nil {
			return nil, err
		}
		return resp.Results, nil
	})
	writeJSON(w, http.StatusOK, wire.BatchResponse{Results: out})
}

func (rt *Router) handlePutBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.PutBatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouterBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: "bad JSON body: " + err.Error(), Code: "bad_request"})
		return
	}
	if len(req.Pairs) == 0 {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: `missing "pairs"`, Code: "bad_request"})
		return
	}
	if len(req.Pairs) > wire.MaxBatchItems {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: wire.OverBatchLimit("pairs"), Code: "bad_request"})
		return
	}
	keys := make([]string, len(req.Pairs))
	for i, kv := range req.Pairs {
		keys[i] = kv.Key
	}
	ctx := r.Context()
	out := rt.scatter(keys, func(shard int, idx []int) ([]wire.BatchItem, error) {
		sub := make([]wire.KV, len(idx))
		for j, i := range idx {
			sub[j] = req.Pairs[i]
		}
		var resp wire.BatchResponse
		if err := rt.postShard(ctx, shard, "/v1/put/batch",
			wire.PutBatchRequest{Pairs: sub}, &resp); err != nil {
			return nil, err
		}
		return resp.Results, nil
	})
	writeJSON(w, http.StatusOK, wire.BatchResponse{Results: out})
}

// memberHealth is one shard's health as seen by the aggregator.
type memberHealth struct {
	Shard       int    `json:"shard"`
	Status      string `json:"status"`
	Version     string `json:"version,omitempty"`
	Epoch       int64  `json:"epoch"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Pending     bool   `json:"pending_epoch"`
	Error       string `json:"error,omitempty"`
}

// clusterHealth is the router's aggregated /healthz body. Status is "ok"
// only when every shard answered ok AND all shards agree on epoch and
// fingerprint — the serving-state equality the determinism gate relies
// on; otherwise it is "degraded" with per-member detail.
type clusterHealth struct {
	Status      string         `json:"status"`
	Version     string         `json:"version,omitempty"`
	Shards      int            `json:"shards"`
	Epoch       int64          `json:"epoch"`
	Fingerprint string         `json:"fingerprint,omitempty"`
	Members     []memberHealth `json:"members"`
	UptimeS     float64        `json:"uptime_s"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	members := make([]memberHealth, rt.Shards())
	rt.eachShard(func(i int) error {
		members[i].Shard = i
		var h struct {
			Status       string `json:"status"`
			Version      string `json:"version"`
			Epoch        int64  `json:"epoch"`
			Fingerprint  string `json:"fingerprint"`
			PendingEpoch bool   `json:"pending_epoch"`
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.cfg.Shards[i]+"/healthz", nil)
		if err == nil {
			var resp *http.Response
			resp, err = rt.client.Do(req)
			if err == nil {
				err = json.NewDecoder(io.LimitReader(resp.Body, maxRouterBody)).Decode(&h)
				resp.Body.Close()
			}
		}
		if err != nil {
			members[i].Status = "unreachable"
			members[i].Error = err.Error()
			return nil
		}
		members[i].Status = h.Status
		members[i].Version = h.Version
		members[i].Epoch = h.Epoch
		members[i].Fingerprint = h.Fingerprint
		members[i].Pending = h.PendingEpoch
		return nil
	})

	out := clusterHealth{
		Status:  "ok",
		Version: rt.cfg.Version,
		Shards:  rt.Shards(),
		Members: members,
		UptimeS: time.Since(rt.start).Seconds(),
	}
	for i, m := range members {
		if m.Status != "ok" || (i > 0 && (m.Epoch != members[0].Epoch || m.Fingerprint != members[0].Fingerprint)) {
			out.Status = "degraded"
		}
	}
	if out.Status == "ok" {
		out.Epoch = members[0].Epoch
		out.Fingerprint = members[0].Fingerprint
		writeJSON(w, http.StatusOK, out)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, out)
}

// memberMetrics is one shard's raw /metrics document plus its index.
type memberMetrics struct {
	Shard   int             `json:"shard"`
	Error   string          `json:"error,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// clusterMetrics is the router's aggregated /metrics body: the per-shard
// raw documents plus totals summed over every numeric leaf of the shard
// documents (epoch and uptime_s take the max instead — they are levels,
// not counters).
type clusterMetrics struct {
	Shards  int             `json:"shards"`
	Totals  map[string]any  `json:"totals"`
	Members []memberMetrics `json:"members"`
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	members := make([]memberMetrics, rt.Shards())
	docs := make([]map[string]any, rt.Shards())
	rt.eachShard(func(i int) error {
		members[i].Shard = i
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.cfg.Shards[i]+"/metrics", nil)
		var raw []byte
		if err == nil {
			var resp *http.Response
			resp, err = rt.client.Do(req)
			if err == nil {
				raw, err = io.ReadAll(io.LimitReader(resp.Body, maxRouterBody))
				resp.Body.Close()
			}
		}
		if err != nil {
			members[i].Error = err.Error()
			return nil
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			members[i].Error = "bad metrics document: " + err.Error()
			return nil
		}
		members[i].Metrics = raw
		docs[i] = doc
		return nil
	})

	totals := map[string]any{}
	for _, doc := range docs {
		if doc != nil {
			mergeNumeric(totals, doc, "")
		}
	}
	writeJSON(w, http.StatusOK, clusterMetrics{
		Shards:  rt.Shards(),
		Totals:  totals,
		Members: members,
	})
}

// mergeNumeric folds src into dst, summing numeric leaves and recursing
// into nested objects. The level-style fields epoch and uptime_s take the
// max across shards instead of a meaningless sum; non-numeric leaves keep
// the first value seen.
func mergeNumeric(dst, src map[string]any, path string) {
	for k, v := range src {
		p := path + k
		switch sv := v.(type) {
		case map[string]any:
			sub, ok := dst[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				dst[k] = sub
			}
			mergeNumeric(sub, sv, p+".")
		case float64:
			prev, ok := dst[k].(float64)
			if !ok {
				dst[k] = sv
				continue
			}
			if p == "epoch" || p == "uptime_s" {
				dst[k] = max(prev, sv)
			} else {
				dst[k] = prev + sv
			}
		default:
			if _, ok := dst[k]; !ok {
				dst[k] = v
			}
		}
	}
}
