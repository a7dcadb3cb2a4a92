package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
	"repro/tinygroups"
	"repro/tinygroups/cluster"
)

// newShard boots one shard daemon of a K-cluster around a fresh
// deterministic system and returns its base URL.
func newShard(t *testing.T, index, count int) (*serve.Server, *httptest.Server) {
	t.Helper()
	sys, err := tinygroups.New(256, tinygroups.WithSeed(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := serve.New(sys, serve.Config{ShardIndex: index, ShardCount: count})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shard %d Shutdown: %v", index, err)
		}
	})
	return s, ts
}

// newCluster boots K shards plus a router over them.
func newCluster(t *testing.T, k int) (*cluster.Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		_, ts := newShard(t, i, k)
		urls[i] = ts.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// post POSTs v and returns (status, raw body).
func post(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// get GETs and returns (status, raw body).
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func healthOf(t *testing.T, base string) (status string, epoch int64, fingerprint string) {
	t.Helper()
	_, body := get(t, base+"/healthz")
	var h struct {
		Status      string `json:"status"`
		Epoch       int64  `json:"epoch"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	return h.Status, h.Epoch, h.Fingerprint
}

// TestClusterDeterminismGate is the headline acceptance check: a K-shard
// cluster on seed S, driven through the router, answers byte-identically
// to a single standalone daemon on the same seed — lookups, gets, batch
// tables, and epoch fingerprints — across coordinated epoch advances, for
// K = 1, 2, 4.
func TestClusterDeterminismGate(t *testing.T) {
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			_, ref := newShard(t, 0, 1) // standalone reference daemon
			_, rts := newCluster(t, k)

			type kv struct {
				Key   string `json:"key"`
				Value []byte `json:"value,omitempty"`
			}
			pairs := make([]kv, len(keys))
			for i, key := range keys {
				pairs[i] = kv{Key: key, Value: []byte("v-" + key)}
			}

			for round := 0; round < 3; round++ {
				// Writes: half through singles, half through the batch form.
				// At later epochs a key can become legitimately unreachable
				// (its search path hits a red group); determinism demands the
				// standalone daemon and the cluster refuse identically, not
				// that every put succeeds.
				for _, p := range pairs[:len(pairs)/2] {
					stR, bodyR := post(t, ref.URL+"/v1/put", p)
					stC, bodyC := post(t, rts.URL+"/v1/put", p)
					if stR != stC || !bytes.Equal(bodyR, bodyC) {
						t.Fatalf("round %d put %q: standalone (%d) %s vs cluster (%d) %s",
							round, p.Key, stR, bodyR, stC, bodyC)
					}
				}
				batch := map[string]any{"pairs": pairs[len(pairs)/2:]}
				stR, bodyR := post(t, ref.URL+"/v1/put/batch", batch)
				stC, bodyC := post(t, rts.URL+"/v1/put/batch", batch)
				if stR != http.StatusOK || stC != http.StatusOK || !bytes.Equal(bodyR, bodyC) {
					t.Fatalf("round %d put/batch diverged:\nstandalone (%d): %s\ncluster    (%d): %s",
						round, stR, bodyR, stC, bodyC)
				}

				// Reads must agree byte for byte.
				for _, key := range keys {
					stR, bodyR := post(t, ref.URL+"/v1/lookup", kv{Key: key})
					stC, bodyC := post(t, rts.URL+"/v1/lookup", kv{Key: key})
					if stR != stC || !bytes.Equal(bodyR, bodyC) {
						t.Fatalf("round %d lookup %q: standalone (%d) %s vs cluster (%d) %s",
							round, key, stR, bodyR, stC, bodyC)
					}
					stR, bodyR = get(t, ref.URL+"/v1/get?key="+key)
					stC, bodyC = get(t, rts.URL+"/v1/get?key="+key)
					if stR != stC || !bytes.Equal(bodyR, bodyC) {
						t.Fatalf("round %d get %q: standalone (%d) %s vs cluster (%d) %s",
							round, key, stR, bodyR, stC, bodyC)
					}
				}
				// The scatter-gathered batch table merges back into request
				// order, so the whole document is byte-identical too.
				stR, bodyR = post(t, ref.URL+"/v1/lookup/batch", map[string]any{"keys": keys})
				stC, bodyC = post(t, rts.URL+"/v1/lookup/batch", map[string]any{"keys": keys})
				if stR != http.StatusOK || stC != http.StatusOK || !bytes.Equal(bodyR, bodyC) {
					t.Fatalf("round %d lookup/batch diverged:\nstandalone (%d): %s\ncluster    (%d): %s",
						round, stR, bodyR, stC, bodyC)
				}

				// Epoch fingerprints agree before advancing...
				_, epochR, fpR := healthOf(t, ref.URL)
				statusC, epochC, fpC := healthOf(t, rts.URL)
				if statusC != "ok" {
					t.Fatalf("round %d cluster health %q, want ok", round, statusC)
				}
				if epochR != epochC || fpR != fpC || fpR == "" {
					t.Fatalf("round %d fingerprints: standalone (%d, %s) vs cluster (%d, %s)",
						round, epochR, fpR, epochC, fpC)
				}

				// ...and the coordinated two-phase advance lands every shard on
				// the exact generation the standalone daemon's advance builds.
				var stats struct {
					Epoch int `json:"epoch"`
				}
				st, body := post(t, ref.URL+"/v1/epoch/advance", struct{}{})
				if st != http.StatusOK {
					t.Fatalf("round %d standalone advance: %d %s", round, st, body)
				}
				st, body = post(t, rts.URL+"/v1/epoch/advance", struct{}{})
				if st != http.StatusOK {
					t.Fatalf("round %d cluster advance: %d %s", round, st, body)
				}
				if err := json.Unmarshal(body, &stats); err != nil || stats.Epoch != round+1 {
					t.Fatalf("round %d cluster advance stats %s (err %v), want epoch %d",
						round, body, err, round+1)
				}
			}
			_, epochR, fpR := healthOf(t, ref.URL)
			statusC, epochC, fpC := healthOf(t, rts.URL)
			if statusC != "ok" || epochR != epochC || fpR != fpC {
				t.Fatalf("final fingerprints: standalone (%d, %s) vs cluster (%q, %d, %s)",
					epochR, fpR, statusC, epochC, fpC)
			}
		})
	}
}

// TestRouterRejectsOversizedBatch pins the batch cap through the router: a
// batch of wire.MaxBatchItems+1 items answers, at K = 1 and 2, exactly the
// standalone daemon's 400 — not a scattered 200, and not per-item
// shard_unreachable errors for a shard's own refusal.
func TestRouterRejectsOversizedBatch(t *testing.T) {
	keys := make([]string, wire.MaxBatchItems+1)
	pairs := make([]wire.KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		pairs[i] = wire.KV{Key: keys[i]}
	}
	_, ref := newShard(t, 0, 1)
	for _, k := range []int{1, 2} {
		_, rts := newCluster(t, k)
		for _, c := range []struct {
			path string
			body any
		}{
			{"/v1/lookup/batch", wire.LookupBatchRequest{Keys: keys}},
			{"/v1/put/batch", wire.PutBatchRequest{Pairs: pairs}},
		} {
			stR, bodyR := post(t, ref.URL+c.path, c.body)
			stC, bodyC := post(t, rts.URL+c.path, c.body)
			if stR != http.StatusBadRequest || stC != stR || !bytes.Equal(bodyR, bodyC) {
				t.Errorf("K=%d %s: standalone (%d) %s vs cluster (%d) %.200s", k, c.path, stR, bodyR, stC, bodyC)
			}
		}
	}
}

// TestRouterForwardsKeyedEndpoints pins that the router lands every keyed
// request on the owning shard: no daemon ever answers 421 through the
// router, and mint/verify round-trip.
func TestRouterForwardsKeyedEndpoints(t *testing.T) {
	const k = 2
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		_, ts := newShard(t, i, k)
		urls[i] = ts.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// One miner per shard: both mints must reach their owning shard.
	miners := make([]string, k)
	found := 0
	for i := 0; found < k; i++ {
		m := fmt.Sprintf("miner-%04d", i)
		if s := cluster.OwnerOf(m, k); miners[s] == "" {
			miners[s] = m
			found++
		}
	}
	for _, m := range miners {
		st, body := post(t, rts.URL+"/v1/mint", map[string]any{"miner": m, "count": 1})
		if st != http.StatusOK {
			t.Fatalf("mint %q via router: %d %s", m, st, body)
		}
		var mr struct {
			Results []struct {
				ID    string `json:"id"`
				Sigma []byte `json:"sigma"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &mr); err != nil || len(mr.Results) != 1 {
			t.Fatalf("mint %q response %s", m, body)
		}
		// The claim verifies through the router (forwarded to shard 0 —
		// verification is a pure function of the shared epoch state).
		st, body = post(t, rts.URL+"/v1/verify", map[string]any{"claims": []any{mr.Results[0]}})
		var vr struct {
			Verdicts []bool `json:"verdicts"`
			Valid    int    `json:"valid"`
		}
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if st != http.StatusOK || vr.Valid != 1 || len(vr.Verdicts) != 1 || !vr.Verdicts[0] {
			t.Fatalf("verify via router: %d %s", st, body)
		}
	}

	// Shard-side wrong_shard counters must stay zero: the router never
	// misroutes.
	for i, u := range urls {
		_, body := get(t, u+"/metrics")
		var ms struct {
			WrongShard int64 `json:"wrong_shard"`
		}
		if err := json.Unmarshal(body, &ms); err != nil {
			t.Fatal(err)
		}
		if ms.WrongShard != 0 {
			t.Fatalf("shard %d wrong_shard = %d after routed traffic", i, ms.WrongShard)
		}
	}

	// Aggregated metrics: totals sum the per-shard mint counters.
	_, body := get(t, rts.URL+"/metrics")
	var agg struct {
		Shards int `json:"shards"`
		Totals struct {
			Requests struct {
				Mint float64 `json:"mint"`
			} `json:"requests"`
		} `json:"totals"`
		Members []struct {
			Shard int `json:"shard"`
		} `json:"members"`
	}
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Shards != k || len(agg.Members) != k || agg.Totals.Requests.Mint != float64(k) {
		t.Fatalf("aggregated metrics = %s", body)
	}
}

// TestShardDownTyped502 pins the failure path: with the owning shard
// down, keyed requests answer a typed 502 shard_unreachable, batch items
// degrade per key, and the aggregated health reports degraded.
func TestShardDownTyped502(t *testing.T) {
	const k = 2
	servers := make([]*httptest.Server, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		_, ts := newShard(t, i, k)
		servers[i] = ts
		urls[i] = ts.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// One key per shard, then kill shard 1.
	keys := make([]string, k)
	found := 0
	for i := 0; found < k; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if s := cluster.OwnerOf(key, k); keys[s] == "" {
			keys[s] = key
			found++
		}
	}
	servers[1].Close()

	st, body := post(t, rts.URL+"/v1/lookup", map[string]any{"key": keys[1]})
	var er struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if st != http.StatusBadGateway || er.Code != "shard_unreachable" {
		t.Fatalf("lookup on dead shard = (%d, %q), want (502, shard_unreachable)", st, er.Code)
	}

	// The surviving shard still answers through the router.
	if st, body := post(t, rts.URL+"/v1/lookup", map[string]any{"key": keys[0]}); st != http.StatusOK {
		t.Fatalf("lookup on live shard = %d %s", st, body)
	}

	// Batches degrade per item: live keys resolve, dead-shard keys carry
	// the typed code.
	st, body = post(t, rts.URL+"/v1/lookup/batch", map[string]any{"keys": keys})
	if st != http.StatusOK {
		t.Fatalf("mixed batch status %d", st)
	}
	var br struct {
		Results []struct {
			Key  string `json:"key"`
			Code string `json:"code"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Code != "ok" || br.Results[1].Code != "shard_unreachable" {
		t.Fatalf("mixed batch codes = %q, %q", br.Results[0].Code, br.Results[1].Code)
	}

	// Aggregated health: degraded, with the dead member called out.
	st, body = get(t, rts.URL+"/healthz")
	var h struct {
		Status  string `json:"status"`
		Members []struct {
			Status string `json:"status"`
		} `json:"members"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if st != http.StatusServiceUnavailable || h.Status != "degraded" ||
		h.Members[0].Status != "ok" || h.Members[1].Status != "unreachable" {
		t.Fatalf("health with dead shard = (%d) %s", st, body)
	}
}

// TestBuildFailureAbortsEverywhere pins the two-phase safety property: a
// phase-1 build failure on one shard means NO shard flips — every shard
// keeps serving the old generation — and after the fault clears, the
// retried coordinated advance lands on exactly the epoch a never-faulted
// daemon builds (the abort rewound the construction randomness).
func TestBuildFailureAbortsEverywhere(t *testing.T) {
	const k = 2
	_, healthy := newShard(t, 0, k)

	// Shard 1 sits behind a fault injector that 500s /v1/epoch/build while
	// failBuild is set and passes everything else through.
	shard1, _ := newShard(t, 1, k)
	var failBuild atomic.Bool
	faulty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failBuild.Load() && r.URL.Path == "/v1/epoch/build" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"injected build fault","code":"internal"}`)
			return
		}
		shard1.Handler().ServeHTTP(w, r)
	}))
	defer faulty.Close()

	rt, err := cluster.NewRouter(cluster.Config{Shards: []string{healthy.URL, faulty.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	_, epoch0, fp0 := healthOf(t, healthy.URL)

	failBuild.Store(true)
	st, body := post(t, rts.URL+"/v1/epoch/advance", struct{}{})
	var er struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if st != http.StatusBadGateway || er.Code != "epoch_build_failed" {
		t.Fatalf("faulted advance = (%d, %q), want (502, epoch_build_failed)", st, er.Code)
	}

	// No shard flipped: both still serve the old epoch, nothing pending.
	for i, u := range []string{healthy.URL, faulty.URL} {
		_, body := get(t, u+"/healthz")
		var h struct {
			Epoch        int64  `json:"epoch"`
			Fingerprint  string `json:"fingerprint"`
			PendingEpoch bool   `json:"pending_epoch"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if h.Epoch != epoch0 || h.Fingerprint != fp0 || h.PendingEpoch {
			t.Fatalf("shard %d after failed advance = %s; must keep serving epoch %d", i, body, epoch0)
		}
	}

	// Fault clears; the retry must converge on the standalone daemon's
	// epoch-1 generation byte for byte (rewind ⇒ identical replay).
	failBuild.Store(false)
	if st, body := post(t, rts.URL+"/v1/epoch/advance", struct{}{}); st != http.StatusOK {
		t.Fatalf("retried advance = %d %s", st, body)
	}
	_, refTS := newShard(t, 0, 1)
	if st, body := post(t, refTS.URL+"/v1/epoch/advance", struct{}{}); st != http.StatusOK {
		t.Fatalf("reference advance = %d %s", st, body)
	}
	_, refEpoch, refFP := healthOf(t, refTS.URL)
	statusC, epochC, fpC := healthOf(t, rts.URL)
	if statusC != "ok" || epochC != refEpoch || fpC != refFP {
		t.Fatalf("post-retry cluster (%q, %d, %s) diverged from reference (%d, %s)",
			statusC, epochC, fpC, refEpoch, refFP)
	}
}
