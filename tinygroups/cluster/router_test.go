package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestRouterRejectsOversizedBatch pins the batch and body caps through the
// router: a batch of wire.MaxBatchItems+1 items, or a body of
// wire.MaxBodyBytes+1 bytes, answers, at K = 1 and 2, exactly the
// standalone daemon's 400 — not a scattered 200, and not per-item
// shard_unreachable errors for a shard's own refusal.
func TestRouterRejectsOversizedBatch(t *testing.T) {
	keys := make([]string, wire.MaxBatchItems+1)
	pairs := make([]wire.KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		pairs[i] = wire.KV{Key: keys[i]}
	}
	prefix, suffix := `{"keys":["`, `"]}`
	pad := strings.Repeat("k", wire.MaxBodyBytes+1-len(prefix)-len(suffix))
	tooLong := json.RawMessage(prefix + pad + suffix)
	_, ref := newShard(t, 0, 1)
	for _, k := range []int{1, 2} {
		_, rts := newCluster(t, k)
		for _, c := range []struct {
			path string
			body any
		}{
			{"/v1/lookup/batch", wire.LookupBatchRequest{Keys: keys}},
			{"/v1/put/batch", wire.PutBatchRequest{Pairs: pairs}},
			{"/v1/lookup/batch", tooLong},
		} {
			stR, bodyR := post(t, ref.URL+c.path, c.body)
			stC, bodyC := post(t, rts.URL+c.path, c.body)
			if stR != http.StatusBadRequest || stC != stR || !bytes.Equal(bodyR, bodyC) {
				t.Errorf("K=%d %s: standalone (%d) %s vs cluster (%d) %.200s", k, c.path, stR, bodyR, stC, bodyC)
			}
		}
	}
}

// send issues one request with a raw body and returns (status, Allow
// header, raw body).
func send(t *testing.T, method, url, body string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Allow"), b
}

// TestRouterWrongMethodMatchesDaemon sends every router route a wrong
// method, with a body the right method would accept, and demands the
// standalone daemon's exact 405 (status, Allow header, body) at K = 1 and
// K = 2. A refused write must not be applied.
func TestRouterWrongMethodMatchesDaemon(t *testing.T) {
	_, ref := newShard(t, 0, 1)
	routes := []struct{ method, path, body string }{
		{http.MethodGet, "/v1/lookup", `{"key":"k"}`},
		{http.MethodPut, "/v1/put", `{"key":"k","value":"dg=="}`},
		{http.MethodGet, "/v1/compute", `{"key":"k","input":1}`},
		{http.MethodGet, "/v1/mint", `{"miner":"m","count":1}`},
		{http.MethodPost, "/v1/get?key=k", ""},
		{http.MethodGet, "/v1/verify", `{"claims":[]}`},
		{http.MethodPut, "/v1/lookup/batch", `{"keys":["k"]}`},
		{http.MethodPut, "/v1/put/batch", `{"pairs":[{"key":"k","value":"dg=="}]}`},
		{http.MethodGet, "/v1/epoch/advance", ""},
		{http.MethodPost, "/healthz", ""},
		{http.MethodPost, "/metrics", ""},
	}
	for _, k := range []int{1, 2} {
		_, rts := newCluster(t, k)
		for _, c := range routes {
			stR, allowR, bodyR := send(t, c.method, ref.URL+c.path, c.body)
			stC, allowC, bodyC := send(t, c.method, rts.URL+c.path, c.body)
			if stR != http.StatusMethodNotAllowed || stC != stR || allowC != allowR || !bytes.Equal(bodyC, bodyR) {
				t.Errorf("K=%d %s %s: standalone %d (Allow %q) %s vs router %d (Allow %q) %s",
					k, c.method, c.path, stR, allowR, bodyR, stC, allowC, bodyC)
			}
		}
		if st, body := get(t, rts.URL+"/v1/get?key=k"); st != http.StatusNotFound {
			t.Errorf("K=%d: a refused put was applied: GET /v1/get?key=k answered %d %s", k, st, body)
		}
	}
}

// TestRouterForwardsKeyedEndpoints pins that mint and verify round-trip
// through the router — a claim minted on one replica verifies on the
// other — and that the aggregated /metrics sums counters but not levels.
func TestRouterForwardsKeyedEndpoints(t *testing.T) {
	const k = 2
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		_, ts := newShard(t, i, k)
		urls[i] = ts.URL
	}
	rts := routerOver(t, cluster.Config{Shards: urls})

	// Reads go round-robin, so the two mints land on different replicas.
	for _, m := range []string{"miner-a", "miner-b"} {
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
		// The claim verifies through the router on whichever replica the
		// verify lands on: verification is a pure function of the shared
		// epoch state.
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

	// Aggregated metrics: totals sum the per-shard mint counters, but a
	// level such as the mint difficulty is every shard's value, not K times
	// it.
	_, body := get(t, urls[0]+"/metrics")
	var one struct {
		Mint struct {
			Work float64 `json:"work"`
		} `json:"mint"`
		Durability struct {
			SnapshotEpoch float64 `json:"snapshot_epoch"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, rts.URL+"/metrics")
	var agg struct {
		Shards int `json:"shards"`
		Totals struct {
			Requests struct {
				Mint float64 `json:"mint"`
			} `json:"requests"`
			Mint struct {
				Work float64 `json:"work"`
			} `json:"mint"`
			Durability struct {
				SnapshotEpoch float64 `json:"snapshot_epoch"`
			} `json:"durability"`
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
	if one.Mint.Work <= 0 || agg.Totals.Mint.Work != one.Mint.Work ||
		agg.Totals.Durability.SnapshotEpoch != one.Durability.SnapshotEpoch {
		t.Fatalf("aggregated levels: mint.work %v, durability.snapshot_epoch %v; one shard has %v, %v",
			agg.Totals.Mint.Work, agg.Totals.Durability.SnapshotEpoch, one.Mint.Work, one.Durability.SnapshotEpoch)
	}
}

// routerOver boots a router with cfg and returns its test server.
func routerOver(t *testing.T, cfg cluster.Config) *httptest.Server {
	t.Helper()
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// codeOf decodes the code of an error envelope.
func codeOf(t *testing.T, body []byte) string {
	t.Helper()
	var e wire.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error envelope %s: %v", body, err)
	}
	return e.Code
}

// TestShardDownTyped502 pins the failure path: with shard 1 down, every
// read still answers through the live replica, a write answers a typed
// 502 shard_unreachable, and the aggregated health reports degraded.
func TestShardDownTyped502(t *testing.T) {
	const k = 2
	servers := make([]*httptest.Server, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		_, ts := newShard(t, i, k)
		servers[i] = ts
		urls[i] = ts.URL
	}
	rts := routerOver(t, cluster.Config{Shards: urls})

	keys := []string{"key-a", "key-b", "key-c", "key-d"}
	for _, key := range keys {
		if st, body := post(t, rts.URL+"/v1/put", map[string]any{"key": key, "value": []byte(key)}); st != http.StatusOK {
			t.Fatalf("put %q = %d %s", key, st, body)
		}
	}
	servers[1].Close()

	// Reads go round-robin, so half of these try the dead replica first.
	for _, key := range keys {
		if st, body := post(t, rts.URL+"/v1/lookup", map[string]any{"key": key}); st != http.StatusOK {
			t.Fatalf("lookup %q with shard 1 down = %d %s", key, st, body)
		}
		if st, body := get(t, rts.URL+"/v1/get?key="+key); st != http.StatusOK {
			t.Fatalf("get %q with shard 1 down = %d %s", key, st, body)
		}
		if st, body := post(t, rts.URL+"/v1/lookup/batch", map[string]any{"keys": keys}); st != http.StatusOK {
			t.Fatalf("lookup/batch with shard 1 down = %d %s", st, body)
		}
	}

	// A write must reach every replica, so it cannot succeed.
	st, body := post(t, rts.URL+"/v1/put", map[string]any{"key": "key-e", "value": []byte("e")})
	if st != http.StatusBadGateway || codeOf(t, body) != "shard_unreachable" {
		t.Fatalf("put with shard 1 down = (%d) %s, want 502 shard_unreachable", st, body)
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

// TestWritesReachEveryReplica pins the write fan-out: at K = 2 and 4,
// puts through the router, single and batched, land on every replica, so
// a GET sent straight to any shard answers byte for byte what the
// standalone daemon answers.
func TestWritesReachEveryReplica(t *testing.T) {
	pairs := make([]wire.KV, 16)
	for i := range pairs {
		key := fmt.Sprintf("rep-%02d", i)
		pairs[i] = wire.KV{Key: key, Value: []byte("v-" + key)}
	}
	half := len(pairs) / 2
	for _, k := range []int{2, 4} {
		_, ref := newShard(t, 0, 1)
		urls := make([]string, k)
		for i := range urls {
			_, ts := newShard(t, i, k)
			urls[i] = ts.URL
		}
		rts := routerOver(t, cluster.Config{Shards: urls})
		for _, p := range pairs[:half] {
			stR, bodyR := post(t, ref.URL+"/v1/put", p)
			stC, bodyC := post(t, rts.URL+"/v1/put", p)
			if stR != stC || !bytes.Equal(bodyR, bodyC) {
				t.Fatalf("K=%d put %q: standalone (%d) %s vs cluster (%d) %s", k, p.Key, stR, bodyR, stC, bodyC)
			}
		}
		batch := wire.PutBatchRequest{Pairs: pairs[half:]}
		stR, bodyR := post(t, ref.URL+"/v1/put/batch", batch)
		stC, bodyC := post(t, rts.URL+"/v1/put/batch", batch)
		if stR != http.StatusOK || stC != stR || !bytes.Equal(bodyR, bodyC) {
			t.Fatalf("K=%d put/batch: standalone (%d) %s vs cluster (%d) %s", k, stR, bodyR, stC, bodyC)
		}
		for _, p := range pairs {
			stR, bodyR := get(t, ref.URL+"/v1/get?key="+p.Key)
			for i, u := range urls {
				if st, body := get(t, u+"/v1/get?key="+p.Key); st != stR || !bytes.Equal(body, bodyR) {
					t.Fatalf("K=%d get %q on shard %d: (%d) %s, standalone (%d) %s", k, p.Key, i, st, body, stR, bodyR)
				}
			}
		}
	}
}

// TestConcurrentPutsConverge races puts of distinct values to one key
// through the router. The router delivers them to every replica in one
// order, so afterwards every replica holds the same value.
func TestConcurrentPutsConverge(t *testing.T) {
	const k, writers = 4, 32
	urls := make([]string, k)
	for i := range urls {
		_, ts := newShard(t, i, k)
		urls[i] = ts.URL
	}
	rts := routerOver(t, cluster.Config{Shards: urls})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := json.Marshal(wire.KV{Key: "hot", Value: fmt.Appendf(nil, "v%02d", i)})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(rts.URL+"/v1/put", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("put %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	st0, want := get(t, urls[0]+"/v1/get?key=hot")
	if st0 != http.StatusOK {
		t.Fatalf("shard 0 get = %d %s", st0, want)
	}
	for i, u := range urls[1:] {
		if st, body := get(t, u+"/v1/get?key=hot"); st != st0 || !bytes.Equal(body, want) {
			t.Fatalf("shard %d holds (%d) %s, shard 0 holds %s", i+1, st, body, want)
		}
	}
}

// TestRouterTimeouts pins which bound applies to which call: a phase call
// of the coordinated advance is bounded by AdvanceTimeout alone, so a
// 300 ms build under a 50 ms RequestTimeout still advances, while a
// forwarded read that takes as long answers 502 shard_unreachable. A put
// whose client gives up while it waits behind the advance is applied
// nowhere.
func TestRouterTimeouts(t *testing.T) {
	shard, _ := newShard(t, 0, 1)
	building := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/epoch/build":
			building <- struct{}{}
			time.Sleep(300 * time.Millisecond)
		case "/v1/lookup":
			time.Sleep(300 * time.Millisecond)
		}
		shard.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	rts := routerOver(t, cluster.Config{
		Shards:         []string{slow.URL},
		RequestTimeout: 50 * time.Millisecond,
		AdvanceTimeout: 5 * time.Second,
	})

	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		resp, err := http.Post(rts.URL+"/v1/epoch/advance", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Error(err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("advance with a 300 ms build = %d %s", resp.StatusCode, body)
		}
	}()
	<-building
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+"/v1/put", strings.NewReader(`{"key":"late","value":"dg=="}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("put behind a 300 ms advance answered %d within its client's 50 ms", resp.StatusCode)
	}
	<-advanced
	// A write after the advance queues behind the abandoned one, if that
	// is still waiting.
	if st, body := post(t, rts.URL+"/v1/put", map[string]any{"key": "after", "value": []byte("a")}); st != http.StatusOK {
		t.Fatalf("put after the advance = %d %s", st, body)
	}
	if st, body := get(t, slow.URL+"/v1/get?key=late"); st != http.StatusNotFound {
		t.Fatalf("a put whose client gave up was applied: get = %d %s", st, body)
	}

	if st, body := post(t, rts.URL+"/v1/lookup", map[string]any{"key": "k"}); st != http.StatusBadGateway || codeOf(t, body) != "shard_unreachable" {
		t.Fatalf("lookup past RequestTimeout = (%d) %s, want 502 shard_unreachable", st, body)
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
