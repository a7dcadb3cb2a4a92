package tinygroups

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

func newTest(t *testing.T, n int, beta float64, opts ...Option) *System {
	t.Helper()
	s, err := New(n, append([]Option{WithBeta(beta)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestNewRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []Option
	}{
		{"tiny N", 2, nil},
		{"beta ≥ 1/2", 256, []Option{WithBeta(0.6)}},
		{"negative beta", 256, []Option{WithBeta(-0.1)}},
		{"unknown overlay", 256, []Option{WithOverlay("nosuch")}},
		{"unknown strategy", 256, []Option{WithStrategy(Strategy(42))}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.n, c.opts...)
			if err == nil {
				s.Close()
				t.Fatal("invalid configuration accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig in its chain", err)
			}
		})
	}
}

func TestOptionsReachTheSystem(t *testing.T) {
	s := newTest(t, 256, 0.05, WithOverlay("debruijn"), WithSeed(9), WithWorkers(2))
	if s.N() != 256 {
		t.Errorf("N = %d", s.N())
	}
	if s.Epoch() != 0 {
		t.Errorf("fresh system at epoch %d", s.Epoch())
	}
	if gs := s.GroupSize(); gs < 4 || gs > 16 {
		t.Errorf("group size %d out of the Θ(log log n) range", gs)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 512, 0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		if _, err := s.Put(ctx, key, val); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
		got, _, err := s.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("Get(%s) = %q, want %q", key, got, val)
		}
	}
}

func TestGetNotFound(t *testing.T) {
	s := newTest(t, 256, 0)
	_, _, err := s.Get(context.Background(), "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 256, 0)
	if _, err := s.Put(ctx, "k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get(ctx, "k")
	got[0] = 'X'
	again, _, _ := s.Get(ctx, "k")
	if string(again) != "abc" {
		t.Error("Get must return a copy, not the stored slice")
	}
}

func TestLookupDeterministicOwner(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 512, 0)
	i1, err := s.Lookup(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	i2, err := s.Lookup(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if i1.Owner != i2.Owner {
		t.Error("same key must resolve to the same owner within an epoch")
	}
	if i1.Messages <= 0 || i1.Hops <= 0 {
		t.Error("lookup cost missing")
	}
	if i1.Owner != Point(0) && KeyPoint("alpha") == 0 {
		t.Error("KeyPoint degenerate")
	}
}

func TestMostLookupsSucceedUnderAttack(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 1024, 0.08)
	fails := 0
	const total = 300
	for i := 0; i < total; i++ {
		if _, err := s.Lookup(ctx, fmt.Sprintf("k%d", i)); err != nil {
			fails++
		}
	}
	if float64(fails)/total > 0.10 {
		t.Errorf("%d/%d lookups failed at β=0.08 — ε-robustness shape violated", fails, total)
	}
}

func TestComputeOnGoodGroups(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 512, 0.05)
	correct, total := 0, 0
	for i := 0; i < 40; i++ {
		res, err := s.Compute(ctx, fmt.Sprintf("job-%d", i), i%2)
		if err != nil {
			continue // unreachable job: part of the conceded ε
		}
		total++
		if res.Correct {
			correct++
		}
		if res.Messages <= 0 {
			t.Error("compute cost missing")
		}
	}
	if total == 0 {
		t.Fatal("all jobs unreachable")
	}
	if float64(correct)/float64(total) < 0.9 {
		t.Errorf("only %d/%d jobs computed correctly at β=0.05", correct, total)
	}
}

func TestAdvanceEpochKeepsStore(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 256, 0.05)
	if _, err := s.Put(ctx, "persistent", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st, err := s.AdvanceEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || s.Epoch() != 1 {
		t.Errorf("epoch bookkeeping wrong: %d / %d", st.Epoch, s.Epoch())
	}
	got, _, err := s.Get(ctx, "persistent")
	if err != nil {
		// Re-homing may land on a red group; retry once after another epoch.
		if _, err := s.AdvanceEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		got, _, err = s.Get(ctx, "persistent")
	}
	if err != nil {
		t.Fatalf("value lost across epochs: %v", err)
	}
	if string(got) != "v" {
		t.Errorf("value corrupted: %q", got)
	}
}

func TestGroupSizeIsTiny(t *testing.T) {
	s := newTest(t, 4096, 0.05)
	gs := s.GroupSize()
	if gs < 4 || gs > 16 {
		t.Errorf("group size %d not in the Θ(log log n) range for n=4096", gs)
	}
}

// TestClosedSystem: every operation on a closed System fails with
// ErrClosed, and Close is idempotent.
func TestClosedSystem(t *testing.T) {
	ctx := context.Background()
	s, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Lookup(ctx, "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Lookup on closed system: %v", err)
	}
	if _, err := s.Put(ctx, "k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put on closed system: %v", err)
	}
	if _, _, err := s.Get(ctx, "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed system: %v", err)
	}
	if _, err := s.Compute(ctx, "k", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Compute on closed system: %v", err)
	}
	if _, err := s.AdvanceEpoch(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("AdvanceEpoch on closed system: %v", err)
	}
	if _, err := s.LookupBatch(ctx, []string{"k"}); !errors.Is(err, ErrClosed) {
		t.Errorf("LookupBatch on closed system: %v", err)
	}
	if _, err := s.PutBatch(ctx, []KV{{Key: "k"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("PutBatch on closed system: %v", err)
	}
}

// TestDeterministicAcrossInstances: two Systems with identical options
// replay an identical operation sequence identically — the public API
// inherits the engine's determinism contract.
func TestDeterministicAcrossInstances(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) []string {
		s := newTest(t, 512, 0.08, WithSeed(77), WithWorkers(workers))
		var log []string
		for i := 0; i < 20; i++ {
			info, err := s.Lookup(ctx, fmt.Sprintf("k%d", i))
			log = append(log, fmt.Sprintf("%v/%v/%d", info.Owner, err, info.Messages))
		}
		st, err := s.AdvanceEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, fmt.Sprintf("%+v", st))
		return log
	}
	a, b, c := run(1), run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-options replay diverged at step %d: %s vs %s", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("worker count leaked into results at step %d: %s vs %s", i, a[i], c[i])
		}
	}
}
