package tinygroups

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a context whose Err() flips to Canceled after a fixed
// number of polls — a deterministic way to cancel AdvanceEpoch at a chosen
// depth inside the construction, without racing a timer.
type countdownCtx struct {
	remaining atomic.Int64
}

var neverDone = make(chan struct{})

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return neverDone }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAdvanceEpochCancelledMidConstruction is the acceptance check for
// context-aware epochs: cancellation fires *between per-ID construction
// batches* (after the entry checks pass), the epoch aborts with a
// context error, the generation never swaps, and the system keeps
// serving.
func TestAdvanceEpochCancelledMidConstruction(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, 512, 0.05, WithSeed(11))
	// Three successful polls: AdvanceEpoch entry, placement, first
	// construction batch. The second batch's poll cancels — mid-way
	// through the per-ID fan-out of a 512-ID generation.
	cd := &countdownCtx{}
	cd.remaining.Store(3)
	_, err := s.AdvanceEpoch(cd)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in its chain", err)
	}
	if cd.remaining.Load() >= 0 {
		t.Fatalf("cancellation never reached the construction (remaining %d)", cd.remaining.Load())
	}
	if s.Epoch() != 0 {
		t.Fatalf("aborted epoch advanced the counter to %d", s.Epoch())
	}
	// The system must remain fully serviceable after the abort.
	if _, err := s.Lookup(ctx, "still-alive"); err != nil && !errors.Is(err, ErrUnreachable) {
		t.Fatalf("post-abort lookup: %v", err)
	}
	st, err := s.AdvanceEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Searches == 0 {
		t.Errorf("post-abort epoch malformed: %+v", st)
	}
	if st.SearchFailRate > 0.15 {
		t.Errorf("post-abort epoch degraded: fail rate %.3f", st.SearchFailRate)
	}
}

// TestAdvanceEpochPreCancelled: an already-cancelled context aborts before
// any work.
func TestAdvanceEpochPreCancelled(t *testing.T) {
	s := newTest(t, 256, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AdvanceEpoch(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Epoch() != 0 {
		t.Errorf("epoch advanced to %d", s.Epoch())
	}
}

// TestOperationsHonorContext: the keyed operations fail fast on a
// cancelled context without touching the store.
func TestOperationsHonorContext(t *testing.T) {
	s := newTest(t, 256, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Errorf("Put: %v", err)
	}
	if _, _, err := s.Get(context.Background(), "k"); !errors.Is(err, ErrNotFound) {
		t.Error("cancelled Put still stored the value")
	}
	if _, err := s.Lookup(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Errorf("Lookup: %v", err)
	}
	if _, err := s.LookupBatch(ctx, []string{"k"}); !errors.Is(err, context.Canceled) {
		t.Errorf("LookupBatch: %v", err)
	}
}

// TestPutCancelledWhileWriterHeld is the writer lock's cancellation
// contract: a Put whose deadline expires while a BuildEpoch holds the
// writer returns the context error promptly instead of waiting out the
// build, was NOT applied — absent from the store and from the op log, so
// a restart cannot resurrect it — leaves concurrent Lookups unaffected,
// and the next Put succeeds.
func TestPutCancelledWhileWriterHeld(t *testing.T) {
	bg := context.Background()
	dir := t.TempDir()
	// n is sized so one build (hundreds of ms) dwarfs the 20 ms deadline.
	s := newTest(t, 8192, 0.05, WithSeed(1), WithDataDir(dir))
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("late-%d", i)
		if _, err := s.Lookup(bg, k); err == nil {
			key = k
		}
	}

	buildCtx, stopBuild := context.WithCancel(bg)
	defer stopBuild()
	built := make(chan error, 1)
	go func() {
		_, err := s.BuildEpoch(buildCtx)
		built <- err
	}()
	for len(s.wmu) == 0 { // until the build holds the writer
		time.Sleep(100 * time.Microsecond)
	}

	appends := s.Durability().OplogAppends
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Put(ctx, key, []byte("v"))
	waited := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Put behind a running build: err = %v, want context.DeadlineExceeded", err)
	}
	select {
	case err := <-built:
		t.Fatalf("build finished (%v) before the Put gave up; the test proved nothing", err)
	default:
	}
	if waited > 150*time.Millisecond {
		t.Errorf("Put took %v to honour a 20ms deadline", waited)
	}
	// Reads never touch the writer lock.
	if _, err := s.Lookup(bg, key); err != nil {
		t.Errorf("Lookup during the build: %v", err)
	}
	if _, _, err := s.Get(bg, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after the cancelled Put: err = %v, want ErrNotFound", err)
	}

	stopBuild()
	if err := <-built; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	if got := s.Durability().OplogAppends; got != appends {
		t.Errorf("op log grew by %d records for a Put that reported a context error", got-appends)
	}
	if _, _, err := s.Get(bg, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancelled Put surfaced after the writer freed up: err = %v", err)
	}

	// The writer is free again: an unrelated key lands, and a restart from
	// the op log serves it but not the cancelled one.
	other := key + "-next"
	for i := 0; ; i++ {
		if _, err := s.Put(bg, other, []byte("w")); err == nil {
			break
		} else if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("Put after the build released the writer: %v", err)
		}
		other = fmt.Sprintf("%s-next-%d", key, i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newTest(t, 8192, 0.05, WithSeed(1), WithDataDir(dir))
	if _, _, err := r.Get(bg, other); err != nil {
		t.Errorf("recovered system lost the acknowledged Put: %v", err)
	}
	if _, _, err := r.Get(bg, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("recovered system serves the cancelled Put: err = %v, want ErrNotFound", err)
	}
}
