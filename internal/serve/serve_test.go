package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/tinygroups"
)

// newTestServer builds a small deterministic system wrapped in a Server
// and registers cleanup. Extra system options stack after the defaults.
func newTestServer(t *testing.T, cfg Config, opts ...tinygroups.Option) *Server {
	t.Helper()
	sys, err := tinygroups.New(256, append([]tinygroups.Option{tinygroups.WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := New(sys, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

func TestStatusOf(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{nil, http.StatusOK, "ok"},
		{tinygroups.ErrNotFound, http.StatusNotFound, "not_found"},
		{fmt.Errorf("wrapped: %w", tinygroups.ErrNotFound), http.StatusNotFound, "not_found"},
		{tinygroups.ErrUnreachable, http.StatusBadGateway, "unreachable"},
		{tinygroups.ErrBadConfig, http.StatusBadRequest, "bad_config"},
		{fmt.Errorf("wrapped: %w", tinygroups.ErrBadConfig), http.StatusBadRequest, "bad_config"},
		{tinygroups.ErrClosed, http.StatusServiceUnavailable, "closed"},
		{context.Canceled, http.StatusGatewayTimeout, "canceled"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "canceled"},
		{fmt.Errorf("boom"), http.StatusInternalServerError, "internal"},
	}
	for _, c := range cases {
		status, code := statusOf(c.err)
		if status != c.wantStatus || code != c.wantCode {
			t.Errorf("statusOf(%v) = (%d, %q), want (%d, %q)",
				c.err, status, code, c.wantStatus, c.wantCode)
		}
	}
}

// TestHandlersBadInput table-tests the HTTP surface's input validation:
// every malformed request maps to a 4xx with a stable machine-readable
// code, never a 5xx or a hang.
func TestHandlersBadInput(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"lookup wrong method", http.MethodGet, "/v1/lookup", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"lookup bad json", http.MethodPost, "/v1/lookup", "{", http.StatusBadRequest, "bad_request"},
		{"lookup missing key", http.MethodPost, "/v1/lookup", "{}", http.StatusBadRequest, "bad_request"},
		{"lookup unknown field", http.MethodPost, "/v1/lookup", `{"nope":1}`, http.StatusBadRequest, "bad_request"},
		{"put wrong method", http.MethodGet, "/v1/put", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"put missing key", http.MethodPost, "/v1/put", `{"value":"AA=="}`, http.StatusBadRequest, "bad_request"},
		{"get wrong method", http.MethodPost, "/v1/get?key=x", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"get missing key", http.MethodGet, "/v1/get", "", http.StatusBadRequest, "bad_request"},
		{"compute wrong method", http.MethodGet, "/v1/compute", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"compute missing key", http.MethodPost, "/v1/compute", `{"input":1}`, http.StatusBadRequest, "bad_request"},
		{"advance wrong method", http.MethodGet, "/v1/epoch/advance", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"healthz wrong method", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"metrics wrong method", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.wantStatus)
			}
			var e wire.Error
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if e.Code != c.wantCode {
				t.Fatalf("code = %q, want %q", e.Code, c.wantCode)
			}
		})
	}
}

// TestPutGetRoundTrip exercises the happy path end to end: a put whose
// route succeeds, the matching get, and the typed 404 for a key never
// stored.
func TestPutGetRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A few keys route through red groups at any seed (the conceded ε), so
	// scan until one put lands.
	var stored string
	for i := 0; i < 32 && stored == ""; i++ {
		key := fmt.Sprintf("round-%d", i)
		body, _ := json.Marshal(map[string]any{"key": key, "value": []byte("payload")})
		resp, err := http.Post(ts.URL+"/v1/put", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			stored = key
		case http.StatusBadGateway: // unreachable — try the next key
		default:
			t.Fatalf("put %q: unexpected status %d", key, resp.StatusCode)
		}
	}
	if stored == "" {
		t.Fatal("no put landed in 32 attempts — search failure rate implausibly high")
	}

	resp, err := http.Get(ts.URL + "/v1/get?key=" + stored)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %q: status %d, want 200", stored, resp.StatusCode)
	}
	var got getResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "payload" {
		t.Fatalf("get %q: value %q, want %q", stored, got.Value, "payload")
	}

	// A reachable key that was never stored is the typed 404.
	found404 := false
	for i := 0; i < 32 && !found404; i++ {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/get?key=missing-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.Error
		if resp.StatusCode == http.StatusNotFound {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Code != "not_found" {
				t.Fatalf("404 code = %q, want not_found", e.Code)
			}
			found404 = true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if !found404 {
		t.Fatal("no missing key returned 404 in 32 attempts")
	}
}

// TestComputeAndAdvance exercises the two exclusive endpoints: a group
// computation and an explicit epoch turnover, checking the epoch counter
// moves and /healthz mirrors it.
func TestComputeAndAdvance(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var cres computeResponse
	for i := 0; i < 32; i++ {
		body, _ := json.Marshal(map[string]any{"key": fmt.Sprintf("job-%d", i), "input": 1})
		resp, err := http.Post(ts.URL+"/v1/compute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&cres); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if cres.Group == "" {
		t.Fatal("no compute landed in 32 attempts")
	}

	resp, err := http.Post(ts.URL+"/v1/epoch/advance", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d, want 200", resp.StatusCode)
	}
	var st tinygroups.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Fatalf("advance: epoch %d, want 1", st.Epoch)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 || h.N != 256 {
		t.Fatalf("healthz = %+v, want status ok / epoch 1 / n 256", h)
	}
}

// TestEpochTicker checks the background ticker advances epochs on its own
// and that Shutdown stops it cleanly.
func TestEpochTicker(t *testing.T) {
	sys, err := tinygroups.New(64, tinygroups.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s := New(sys, Config{EpochEvery: 5 * time.Millisecond})
	deadline := time.Now().Add(10 * time.Second)
	for s.m.epochsAdvanced.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker advanced no epoch within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.sys.Epoch() == 0 {
		t.Fatal("ticker counted an advance the System never committed")
	}
}

// TestReadsSurviveCancelledAdvance cancels an epoch advance mid-flight and
// checks the degradation contract: the advance reports the cancellation,
// the epoch snapshot never flips, reads keep serving the pinned snapshot,
// and a later advance succeeds normally.
func TestReadsSurviveCancelledAdvance(t *testing.T) {
	s := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // RunEpochContext aborts cooperatively between batches
	if _, err := s.advanceEpoch(ctx); err == nil {
		t.Fatal("cancelled advance reported success")
	}
	if got := s.sys.Epoch(); got != 0 {
		t.Fatalf("epoch = %d after cancelled advance, want 0 (snapshot must not flip)", got)
	}

	// Reads still serve the pinned snapshot.
	if _, err := s.sys.Lookup(context.Background(), "read-after-abort"); err != nil && err != tinygroups.ErrUnreachable {
		t.Fatalf("lookup after aborted advance: %v", err)
	}

	// The system is not wedged: the next advance completes.
	st, err := s.advanceEpoch(context.Background())
	if err != nil {
		t.Fatalf("advance after aborted advance: %v", err)
	}
	if st.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch)
	}
}

// blockFirstPut is an Observer whose first put-search event parks until
// release: Put reports the event while holding the System's writer lock,
// so the put that trips it pins the writer and every later write queues
// behind it.
type blockFirstPut struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockFirstPut) ObserveSearch(ev tinygroups.SearchEvent) {
	if ev.Op != tinygroups.OpPut {
		return
	}
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
}
func (*blockFirstPut) ObserveEpoch(tinygroups.EpochEvent) {}
func (*blockFirstPut) ObserveMint(tinygroups.MintEvent)   {}

// TestShutdownDrainsInflight holds one put inside the System with more
// queued on the writer lock behind it, begins Shutdown, and checks every
// one of them still receives a real routed response before the System
// closes — the drain-then-close contract.
func TestShutdownDrainsInflight(t *testing.T) {
	obs := &blockFirstPut{entered: make(chan struct{}), release: make(chan struct{})}
	sys, err := tinygroups.New(256, tinygroups.WithSeed(1), tinygroups.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	s := New(sys, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	const inflight = 6
	type reply struct {
		status int
		err    error
	}
	replies := make(chan reply, inflight)
	post := func(key string) {
		body, _ := json.Marshal(map[string]string{"key": key})
		resp, err := http.Post(url+"/v1/put", "application/json", bytes.NewReader(body))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		replies <- reply{status: resp.StatusCode}
	}

	// One put enters the System and is held under the writer lock...
	go post("drain-0")
	<-obs.entered
	// ...then more arrive and wait for the lock behind it.
	for i := 1; i < inflight; i++ {
		go post(fmt.Sprintf("drain-%d", i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.m.puts.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests arrived", s.m.puts.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown begins while all of them are unanswered.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned (%v) with writes still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(obs.release)

	for i := 0; i < inflight; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("in-flight request got transport error %v — dropped instead of drained", r.err)
		}
		if r.status != http.StatusOK && r.status != http.StatusBadGateway {
			t.Fatalf("in-flight request got status %d, want 200 or 502", r.status)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// After the drain the System is closed: a late put, a late lookup and
	// /healthz all answer 503.
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/put"}, {http.MethodPost, "/v1/lookup"}, {http.MethodGet, "/healthz"},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(`{"key":"late"}`)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("post-shutdown %s: status %d, want 503", c.path, rec.Code)
		}
	}
}
