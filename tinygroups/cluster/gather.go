package cluster

import (
	"encoding/json"
	"net/http"
	"time"
)

// This file aggregates health and metrics across every member.

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
		rp, err := rt.call(r.Context(), rt.cfg.RequestTimeout, i, http.MethodGet, "/healthz", nil)
		if err == nil {
			err = json.Unmarshal(rp.body, &h)
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
// documents (the levels take the max instead).
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
		rp, err := rt.call(r.Context(), rt.cfg.RequestTimeout, i, http.MethodGet, "/metrics", nil)
		if err != nil {
			members[i].Error = err.Error()
			return nil
		}
		var doc map[string]any
		if err := json.Unmarshal(rp.body, &doc); err != nil {
			members[i].Error = "bad metrics document: " + err.Error()
			return nil
		}
		members[i].Metrics = rp.body
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

// levels are the /metrics leaves that hold a level, not a count: their
// total is the max across shards, not a meaningless sum.
var levels = map[string]bool{"epoch": true, "uptime_s": true, "mint.work": true, "durability.snapshot_epoch": true}

// mergeNumeric folds src into dst, summing numeric leaves (taking the max
// of levels) and recursing into nested objects; non-numeric leaves keep
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
			if levels[p] {
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
