package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/tinygroups"
)

// TestAttackGeneratorDeterminism extends the pure-(seed, i) contract to the
// adversarial workloads: attack streams must replay byte-identically and
// differ across seeds, exactly like the friendly six.
func TestAttackGeneratorDeterminism(t *testing.T) {
	for _, g := range AttackSuite(256, 50) {
		t.Run(g.Name(), func(t *testing.T) {
			var differs bool
			for i := 0; i < 200; i++ {
				a, b := g.Op(1, i), g.Op(1, i)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("op %d not reproducible: %+v vs %+v", i, a, b)
				}
				if !reflect.DeepEqual(g.Op(1, i), g.Op(2, i)) {
					differs = true
				}
			}
			if !differs {
				t.Fatal("seeds 1 and 2 generated identical 200-op streams")
			}
		})
	}
}

// TestAttackGeneratorShapes spot-checks each attack's pressure pattern: the
// join-flood burst schedule, targeted-churn's concentration around the
// victim, and eclipse-storm's concentration inside the clustered arc.
func TestAttackGeneratorShapes(t *testing.T) {
	const keys, ops = 256, 4000

	t.Run("join-flood", func(t *testing.T) {
		const every, burst = 40, 8
		g := JoinFlood(keys, every, burst)
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			phase := i % every
			switch {
			case phase == every-1:
				if op.Kind != KindAdvance {
					t.Fatalf("op %d: kind %v, want advance", i, op.Kind)
				}
			case phase >= every-1-burst:
				if op.Kind != KindMint || !strings.HasPrefix(op.Key, "adv") {
					t.Fatalf("op %d: kind %v key %q, want adversarial mint in the burst window", i, op.Kind, op.Key)
				}
			default:
				if op.Kind != KindLookup {
					t.Fatalf("op %d: kind %v, want lookup outside the burst", i, op.Kind)
				}
			}
		}
	})

	t.Run("targeted-churn", func(t *testing.T) {
		const every = 50
		g := TargetedChurn(keys, every, 8, "victim")
		victim := tinygroups.KeyPoint("victim")
		var sumDist, n float64
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			if i%every == every-1 {
				if op.Kind != KindAdvance {
					t.Fatalf("op %d: kind %v, want advance", i, op.Kind)
				}
				continue
			}
			want := KindLookup
			if i%2 == 0 {
				want = KindPut
			}
			if op.Kind != want {
				t.Fatalf("op %d: kind %v, want %v", i, op.Kind, want)
			}
			sumDist += float64(pointDist(tinygroups.KeyPoint(op.Key), victim))
			n++
		}
		// A uniform draw averages 2^62 from the victim; keeping the best
		// of 8 candidates must concentrate well below half that.
		if mean := sumDist / n; mean > float64(uint64(1)<<61) {
			t.Fatalf("mean victim distance %.3g, want < 2^61 (no concentration)", mean)
		}
	})

	t.Run("eclipse-storm", func(t *testing.T) {
		const every, span = 50, 0.125
		g := EclipseStorm(keys, every, 8, span)
		limit := tinygroups.Point(uint64(span*(1<<63)) << 1)
		inArc, n := 0, 0
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			if i%every == every-1 {
				if op.Kind != KindAdvance {
					t.Fatalf("op %d: kind %v, want advance", i, op.Kind)
				}
				continue
			}
			if op.Kind != KindLookup {
				t.Fatalf("op %d: kind %v, want lookup", i, op.Kind)
			}
			if tinygroups.KeyPoint(op.Key) < limit {
				inArc++
			}
			n++
		}
		// Uniform traffic would land span ≈ 12.5% of reads in the arc;
		// best-of-8 selection must concentrate far beyond that.
		if frac := float64(inArc) / float64(n); frac < 0.4 {
			t.Fatalf("in-arc fraction %.3f, want ≥ 0.4 (uniform is %.3f)", frac, span)
		}
	})
}

// flakyHandler answers every request 429 until `fails` attempts have been
// seen, then 200 — the saturation shape WithRetry exists for.
type flakyHandler struct {
	fails int64
	seen  atomic.Int64
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.seen.Add(1) <= h.fails {
		w.WriteHeader(http.StatusTooManyRequests)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// TestHTTPTargetRetry checks the bounded-retry contract: 429s are retried
// with backoff up to the budget, the retry counter advances, and without
// WithRetry the 429 surfaces as a typed StatusError.
func TestHTTPTargetRetry(t *testing.T) {
	h := &flakyHandler{fails: 2}
	ts := httptest.NewServer(h)
	defer ts.Close()

	target := NewHTTPTarget(ts.URL, WithRetry(3, time.Millisecond))
	out, err := target.Do(context.Background(), Op{Kind: KindLookup, Key: "k"})
	if err != nil || out != OK {
		t.Fatalf("Do = %v, %v; want OK after retries", out, err)
	}
	if got := target.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	h.seen.Store(0)
	bare := NewHTTPTarget(ts.URL)
	_, err = bare.Do(context.Background(), Op{Kind: KindLookup, Key: "k"})
	se, ok := err.(*StatusError)
	if !ok || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want *StatusError{429}", err)
	}

	// A budget smaller than the failure run exhausts and surfaces the 429.
	h.seen.Store(0)
	h.fails = 5
	short := NewHTTPTarget(ts.URL, WithRetry(2, time.Millisecond))
	_, err = short.Do(context.Background(), Op{Kind: KindLookup, Key: "k"})
	if se, ok := err.(*StatusError); !ok || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want exhausted-budget *StatusError{429}", err)
	}
}

// TestRunByStatusBreakdown checks the driver's per-status accounting: a
// target answering only 503 yields SuccessRate 0 and an http_503 row, and
// the retry delta lands in Result.Retries without touching OK.
func TestRunByStatusBreakdown(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	target := NewHTTPTarget(ts.URL, WithRetry(1, time.Millisecond))
	res, err := Run(context.Background(), target, Uniform(16),
		Config{Concurrency: 2, Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 0 || res.SuccessRate != 0 {
		t.Fatalf("ok = %d, success rate = %v; want 0 against an all-503 target", res.OK, res.SuccessRate)
	}
	if res.ByStatus["http_503"] != 20 {
		t.Fatalf("by_status = %v, want http_503: 20", res.ByStatus)
	}
	if res.Retries != 20 {
		t.Fatalf("retries = %d, want 20 (one per op)", res.Retries)
	}
}

// fixedTarget answers every op with one outcome.
type fixedTarget Outcome

func (f fixedTarget) Do(context.Context, Op) (Outcome, error) { return Outcome(f), nil }

// TestSuccessRateCountsMisses pins what success_rate means: a target that
// misses by design (every key never written) answered every op correctly,
// while one that is unreachable by design answered none.
func TestSuccessRateCountsMisses(t *testing.T) {
	for _, c := range []struct {
		out  Outcome
		want float64
	}{{NotFound, 1}, {Unreachable, 0}} {
		res, err := Run(context.Background(), fixedTarget(c.out), Uniform(16),
			Config{Concurrency: 2, Ops: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK != 0 || res.ByStatus[c.out.String()] != 20 {
			t.Fatalf("%v target: ok = %d, by_status = %v; want 20 %v", c.out, res.OK, res.ByStatus, c.out)
		}
		if res.SuccessRate != c.want {
			t.Fatalf("%v target: success rate = %v, want %v", c.out, res.SuccessRate, c.want)
		}
	}
}
