package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/tinygroups"
)

// Outcome is the semantic result of one executed operation. Unreachable
// and NotFound are expected system behaviors (the conceded ε of Theorem 3,
// and reads of never-written keys), not failures — the driver tallies them
// separately from transport errors.
type Outcome uint8

// The semantic outcomes a Target reports.
const (
	OK Outcome = iota
	Unreachable
	NotFound
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Unreachable:
		return "unreachable"
	case NotFound:
		return "not_found"
	}
	return "unknown"
}

// Target executes generated operations against a system under test. Do
// returns the semantic outcome; the error is non-nil only for transport or
// system failures, which the driver counts as errors and does not retry.
// Implementations must be safe for concurrent use.
type Target interface {
	Do(ctx context.Context, op Op) (Outcome, error)
}

// RetryCounter is the optional interface of targets that retry failed
// attempts internally (see WithRetry). Run reads it before and after a
// workload to attribute the delta to that workload's Result.Retries —
// retries are accounted separately and never inflate the success count.
type RetryCounter interface {
	// Retries returns the cumulative retry count of the target.
	Retries() int64
}

// StatusError reports an HTTP response status the target has no semantic
// mapping for. The driver's per-status breakdown (Result.ByStatus) keys
// off Status, so draining 503s and canceled 504s stay distinguishable in
// attack reports.
type StatusError struct {
	Method string
	Path   string
	Status int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("loadgen: %s %s: unexpected status %d", e.Method, e.Path, e.Status)
}

// defaultRequestTimeout bounds each HTTP attempt unless WithRequestTimeout
// overrides it. 10s is far above any healthy endpoint's p99 (mints
// included) while letting chaos runs fail fast instead of hanging a
// closed-loop worker on a killed daemon.
const defaultRequestTimeout = 10 * time.Second

// TargetOption configures an HTTPTarget.
type TargetOption func(*HTTPTarget)

// WithRequestTimeout bounds each HTTP attempt (the http.Client timeout).
// Non-positive values keep the default.
func WithRequestTimeout(d time.Duration) TargetOption {
	return func(t *HTTPTarget) {
		if d > 0 {
			t.client.Timeout = d
		}
	}
}

// WithRetry enables bounded retries of attempts answered 429 (a router or
// proxy shedding load) or 503 (draining/restarting): up to max extra
// attempts per op, spaced by decorrelated-jitter backoff growing from base. Retries are
// counted on the Retries counter — the driver reports them separately, so
// a retried success never hides the rejection that preceded it. The
// backoff jitter is timing-only: it cannot affect which operations run or
// what they contain.
func WithRetry(max int, base time.Duration) TargetOption {
	return func(t *HTTPTarget) {
		if max < 0 {
			max = 0
		}
		if base <= 0 {
			base = 25 * time.Millisecond
		}
		t.maxRetries = max
		t.backoffBase = base
	}
}

// HTTPTarget drives a tinygroupsd daemon over its /v1 endpoints.
type HTTPTarget struct {
	base   string
	client *http.Client

	maxRetries  int
	backoffBase time.Duration
	retries     atomic.Int64
	backoffSeed atomic.Uint64 // per-sleep jitter stream; timing-only
}

// NewHTTPTarget returns a target for the daemon at baseURL (e.g.
// "http://127.0.0.1:8477"). Connections are pooled and reused across the
// closed-loop workers. By default each attempt is bounded by a 10s timeout
// and nothing retries; see WithRequestTimeout and WithRetry.
func NewHTTPTarget(baseURL string, opts ...TargetOption) *HTTPTarget {
	t := &HTTPTarget{
		base:   baseURL,
		client: &http.Client{Timeout: defaultRequestTimeout},
	}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Retries implements RetryCounter.
func (t *HTTPTarget) Retries() int64 { return t.retries.Load() }

// WaitReady polls /healthz until the daemon answers 200, ctx cancels, or
// timeout elapses — the startup handshake of cmd/loadgen and the smoke
// gate.
func (t *HTTPTarget) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := t.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s/healthz not ready after %s (last: %v)", t.base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// jsonBody marshals v for a request body.
func jsonBody(v any) ([]byte, error) {
	return json.Marshal(v)
}

// backoff sleeps one decorrelated-jitter step: uniform in [base, 3·prev],
// capped at 32× base. The jitter stream is a private splitmix sequence —
// deterministic per target, but purely a wall-clock knob; op content never
// depends on it.
func (t *HTTPTarget) backoff(ctx context.Context, prev time.Duration) time.Duration {
	lo := t.backoffBase
	hi := 3 * prev
	if hi < lo {
		hi = lo
	}
	if ceil := 32 * t.backoffBase; hi > ceil {
		hi = ceil
	}
	d := lo
	if hi > lo {
		rng := engine.NewStream(int64(t.backoffSeed.Add(1)))
		d = lo + time.Duration(rng.Uint64n(uint64(hi-lo)))
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
	return d
}

// Do implements Target by mapping op kinds onto the daemon's endpoints and
// HTTP statuses back onto outcomes (200 → OK, 502 → Unreachable, 404 →
// NotFound; anything else is a *StatusError). Attempts answered 429 or 503
// are retried with backoff when WithRetry is configured.
func (t *HTTPTarget) Do(ctx context.Context, op Op) (Outcome, error) {
	var (
		method = http.MethodPost
		path   string
		body   []byte
		err    error
	)
	switch op.Kind {
	case KindLookup:
		path = "/v1/lookup"
		body, err = jsonBody(map[string]any{"key": op.Key})
	case KindPut:
		path = "/v1/put"
		body, err = jsonBody(map[string]any{"key": op.Key, "value": op.Value})
	case KindGet:
		method = http.MethodGet
		path = "/v1/get?key=" + url.QueryEscape(op.Key)
	case KindAdvance:
		path = "/v1/epoch/advance"
	case KindMint:
		path = "/v1/mint"
		body, err = jsonBody(map[string]any{"miner": op.Key, "count": 1})
	case KindBulkLookup:
		// One amortized batch call; per-key outcomes ride inside the 200
		// body, so the op-level outcome is the call's own.
		path = "/v1/lookup/batch"
		body, err = jsonBody(map[string]any{"keys": op.Keys})
	default:
		return OK, fmt.Errorf("loadgen: unknown op kind %d", op.Kind)
	}
	if err != nil {
		return OK, err
	}
	prev := t.backoffBase
	for attempt := 0; ; attempt++ {
		status, err := t.attempt(ctx, method, path, body)
		if err != nil {
			return OK, err
		}
		switch status {
		case http.StatusOK:
			return OK, nil
		case http.StatusBadGateway:
			return Unreachable, nil
		case http.StatusNotFound:
			return NotFound, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt < t.maxRetries && ctx.Err() == nil {
				t.retries.Add(1)
				prev = t.backoff(ctx, prev)
				continue
			}
		}
		return OK, &StatusError{Method: method, Path: path, Status: status}
	}
}

// attempt issues one HTTP request and returns the response status.
func (t *HTTPTarget) attempt(ctx context.Context, method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// SystemTarget drives an in-process tinygroups.System directly — the
// no-network baseline, and the target unit tests use. A System is safe
// for concurrent use (reads are lock-free against the epoch snapshot;
// writes serialize on the System's own writer mutex), so the closed-loop
// workers call it directly with no serialization in the target.
type SystemTarget struct {
	sys *tinygroups.System
}

// NewSystemTarget wraps sys. The caller keeps ownership (and Close).
func NewSystemTarget(sys *tinygroups.System) *SystemTarget {
	return &SystemTarget{sys: sys}
}

// Do implements Target over the library API.
func (t *SystemTarget) Do(ctx context.Context, op Op) (Outcome, error) {
	var err error
	switch op.Kind {
	case KindLookup:
		_, err = t.sys.Lookup(ctx, op.Key)
	case KindPut:
		_, err = t.sys.Put(ctx, op.Key, op.Value)
	case KindGet:
		_, _, err = t.sys.Get(ctx, op.Key)
	case KindAdvance:
		_, err = t.sys.AdvanceEpoch(ctx)
	case KindMint:
		_, err = t.sys.Mint(ctx, op.Key)
	case KindBulkLookup:
		// Mirrors the HTTP batch endpoint: per-key routing failures ride in
		// the per-item results, so only a call-level failure is an error.
		_, err = t.sys.LookupBatch(ctx, op.Keys)
	default:
		return OK, fmt.Errorf("loadgen: unknown op kind %d", op.Kind)
	}
	switch {
	case err == nil:
		return OK, nil
	case errors.Is(err, tinygroups.ErrUnreachable):
		return Unreachable, nil
	case errors.Is(err, tinygroups.ErrNotFound):
		return NotFound, nil
	default:
		return OK, err
	}
}
