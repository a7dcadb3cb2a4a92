package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/wire"
	"repro/tinygroups"
)

// postJSONAny posts v and decodes the response into out regardless of
// status, returning the status code — for asserting typed error bodies.
func postJSONAny(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode
}

// TestBatchEndpointsMatchSingles pins that the batch forms return, key by
// key in request order, exactly what the single-key endpoints return.
func TestBatchEndpointsMatchSingles(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	keys := []string{"alpha", "beta", "gamma", "delta"}
	pairs := make([]wire.KV, len(keys))
	for i, k := range keys {
		pairs[i] = wire.KV{Key: k, Value: []byte("v-" + k)}
	}
	var pb wire.BatchResponse
	if st := postJSON(t, ts.URL+"/v1/put/batch", wire.PutBatchRequest{Pairs: pairs}, &pb); st != http.StatusOK {
		t.Fatalf("put/batch status %d", st)
	}
	if len(pb.Results) != len(keys) {
		t.Fatalf("put/batch returned %d results", len(pb.Results))
	}

	var lb wire.BatchResponse
	if st := postJSON(t, ts.URL+"/v1/lookup/batch", wire.LookupBatchRequest{Keys: keys}, &lb); st != http.StatusOK {
		t.Fatalf("lookup/batch status %d", st)
	}
	for i, k := range keys {
		var single lookupResponse
		var serr wire.Error
		st := postJSON(t, ts.URL+"/v1/lookup", keyRequest{Key: k}, &single)
		it := lb.Results[i]
		if it.Key != k {
			t.Fatalf("result %d key %q, want %q (order must be preserved)", i, it.Key, k)
		}
		if st == http.StatusOK {
			if it.Code != "ok" || it.Owner != single.Owner || it.Hops != single.Hops || it.Messages != single.Messages {
				t.Fatalf("lookup/batch[%q] = %+v diverges from single %+v", k, it, single)
			}
		} else {
			postJSONAny(t, ts.URL+"/v1/lookup", keyRequest{Key: k}, &serr)
			if it.Code != serr.Code {
				t.Fatalf("lookup/batch[%q] code %q, single code %q", k, it.Code, serr.Code)
			}
		}
		// Stored values round-trip through the batch put.
		if it.Code == "ok" {
			resp, err := http.Get(ts.URL + "/v1/get?key=" + k)
			if err != nil {
				t.Fatal(err)
			}
			var gr getResponse
			if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if string(gr.Value) != "v-"+k {
				t.Fatalf("get(%q) = %q after batch put", k, gr.Value)
			}
		}
	}
}

// TestBatchWorkerCountInvariance is the serving-layer half of the
// determinism contract: the same /v1/put/batch body produces byte-identical
// reply bytes whether the underlying System fans routing across 1 worker
// or 4. This is what lets operators resize the pool without changing a
// single served byte.
func TestBatchWorkerCountInvariance(t *testing.T) {
	pairs := make([]wire.KV, 24)
	for i := range pairs {
		k := "inv-" + string(rune('a'+i))
		pairs[i] = wire.KV{Key: k, Value: []byte(k)}
	}
	body, err := json.Marshal(wire.PutBatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	var got [2]string
	for i, workers := range []int{1, 4} {
		s := newTestServer(t, Config{}, tinygroups.WithWorkers(workers))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/put/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: put/batch status %d: %s", workers, rec.Code, rec.Body)
		}
		got[i] = rec.Body.String()
	}
	if got[0] != got[1] {
		t.Fatalf("batched put replies differ across worker counts:\n 1: %s\n 4: %s", got[0], got[1])
	}
}

// TestEpochBuildFlipAbort drives the two-phase endpoints end to end:
// build parks without flipping, flip advances, a bare flip 409s, and
// build→abort→advance replays the identical epoch a plain advance runs.
func TestEpochBuildFlipAbort(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := func() healthResponse {
		var h healthResponse
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return h
	}

	h0 := health()
	if h0.Epoch != 0 || h0.PendingEpoch || h0.Fingerprint == "" {
		t.Fatalf("fresh health = %+v", h0)
	}

	// A bare flip has nothing to commit.
	var er wire.Error
	if st := postJSONAny(t, ts.URL+"/v1/epoch/flip", struct{}{}, &er); st != http.StatusConflict || er.Code != "no_pending" {
		t.Fatalf("bare flip = (%d, %q), want (409, no_pending)", st, er.Code)
	}

	// Build parks: epoch and fingerprint unchanged, pending visible.
	var st tinygroups.Stats
	if code := postJSON(t, ts.URL+"/v1/epoch/build", struct{}{}, &st); code != http.StatusOK {
		t.Fatalf("build status %d", code)
	}
	if st.Epoch != 1 {
		t.Fatalf("build stats epoch %d, want 1", st.Epoch)
	}
	h1 := health()
	if h1.Epoch != 0 || !h1.PendingEpoch || h1.Fingerprint != h0.Fingerprint {
		t.Fatalf("post-build health = %+v; serving state must not change", h1)
	}

	// Flip commits.
	if code := postJSON(t, ts.URL+"/v1/epoch/flip", struct{}{}, &st); code != http.StatusOK {
		t.Fatalf("flip status %d", code)
	}
	h2 := health()
	if h2.Epoch != 1 || h2.PendingEpoch || h2.Fingerprint == h0.Fingerprint {
		t.Fatalf("post-flip health = %+v", h2)
	}

	// Build→abort leaves epoch 1 serving, and the replay invariant makes
	// the next one-shot advance land exactly where a never-aborted server
	// lands: compare against a fresh server advanced twice.
	if code := postJSON(t, ts.URL+"/v1/epoch/build", struct{}{}, &st); code != http.StatusOK {
		t.Fatalf("second build status %d", code)
	}
	var ab abortResponse
	if code := postJSON(t, ts.URL+"/v1/epoch/abort", struct{}{}, &ab); code != http.StatusOK || !ab.Aborted {
		t.Fatalf("abort = (%d, %+v)", code, ab)
	}
	h3 := health()
	if h3.Epoch != 1 || h3.PendingEpoch || h3.Fingerprint != h2.Fingerprint {
		t.Fatalf("post-abort health = %+v; must keep serving epoch 1", h3)
	}
	if code := postJSON(t, ts.URL+"/v1/epoch/advance", struct{}{}, &st); code != http.StatusOK {
		t.Fatalf("advance status %d", code)
	}

	ref := newTestServer(t, Config{})
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	for i := 0; i < 2; i++ {
		if code := postJSON(t, tsRef.URL+"/v1/epoch/advance", struct{}{}, &st); code != http.StatusOK {
			t.Fatalf("reference advance status %d", code)
		}
	}
	if got, want := health().Fingerprint, ref.sys.Fingerprint(); got != want {
		t.Fatal("epoch 2 fingerprint after build+abort+advance diverged from plain advances")
	}
}

// TestHealthVersionAndShard pins the build-identity satellite: /healthz
// reports the configured version and shard scope.
func TestHealthVersionAndShard(t *testing.T) {
	s := newTestServer(t, Config{Version: "test-v1.2", ShardIndex: 1, ShardCount: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var h healthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Version != "test-v1.2" || h.Shard != 1 || h.Shards != 4 {
		t.Fatalf("health = %+v", h)
	}
}
