package tinygroups

import (
	"context"
	"fmt"
	"testing"
)

// recorder collects every event in arrival order.
type recorder struct {
	searches []SearchEvent
	epochs   []EpochEvent
	mints    []MintEvent
}

func (r *recorder) ObserveSearch(e SearchEvent) { r.searches = append(r.searches, e) }
func (r *recorder) ObserveEpoch(e EpochEvent)   { r.epochs = append(r.epochs, e) }
func (r *recorder) ObserveMint(e MintEvent)     { r.mints = append(r.mints, e) }

func TestObserverStreamsEvents(t *testing.T) {
	ctx := context.Background()
	rec := &recorder{}
	s := newTest(t, 512, 0.05, WithSeed(3), WithObserver(rec))

	if _, err := s.Put(ctx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compute(ctx, "job", 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.searches) != 4 {
		t.Fatalf("%d search events, want 4", len(rec.searches))
	}
	for i, wantOp := range []Op{OpPut, OpGet, OpLookup, OpCompute} {
		ev := rec.searches[i]
		if ev.Op != wantOp {
			t.Errorf("event %d op = %v, want %v", i, ev.Op, wantOp)
		}
		if !ev.OK || ev.Owner == 0 || ev.Hops <= 0 || ev.Messages <= 0 {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
	}

	st, err := s.AdvanceEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.epochs) != 1 || len(rec.mints) != 1 {
		t.Fatalf("epoch/mint events = %d/%d, want 1/1", len(rec.epochs), len(rec.mints))
	}
	if rec.epochs[0].Stats != st {
		t.Error("EpochEvent stats differ from AdvanceEpoch's return")
	}
	mint := rec.mints[0]
	if mint.Epoch != 1 || mint.Minted != 512 {
		t.Errorf("mint event malformed: %+v", mint)
	}
	beta := 0.05
	wantBad := int(beta * 512)
	if mint.Bad != wantBad {
		t.Errorf("mint.Bad = %d, want βn = %d", mint.Bad, wantBad)
	}
}

// TestObserverBatchOrder: batch operations report one event per key, in
// key order, regardless of the parallel execution order.
func TestObserverBatchOrder(t *testing.T) {
	ctx := context.Background()
	rec := &recorder{}
	s := newTest(t, 512, 0, WithSeed(4), WithObserver(rec), WithWorkers(4))
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	if _, err := s.LookupBatch(ctx, keys); err != nil {
		t.Fatal(err)
	}
	if len(rec.searches) != len(keys) {
		t.Fatalf("%d events for %d keys", len(rec.searches), len(keys))
	}
	for i, ev := range rec.searches {
		if ev.Key != keys[i] {
			t.Fatalf("event %d is for key %q, want %q (order broken)", i, ev.Key, keys[i])
		}
	}
}

// TestObserverDoesNotChangeResults: attaching an observer must not perturb
// a single random draw.
func TestObserverDoesNotChangeResults(t *testing.T) {
	ctx := context.Background()
	run := func(obs Observer) []Point {
		opts := []Option{WithSeed(6)}
		if obs != nil {
			opts = append(opts, WithObserver(obs))
		}
		s := newTest(t, 512, 0.05, opts...)
		var owners []Point
		for i := 0; i < 10; i++ {
			info, _ := s.Lookup(ctx, fmt.Sprintf("k%d", i))
			owners = append(owners, info.Owner)
		}
		if _, err := s.AdvanceEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		info, _ := s.Lookup(ctx, "after")
		return append(owners, info.Owner)
	}
	bare := run(nil)
	observed := run(&recorder{})
	for i := range bare {
		if bare[i] != observed[i] {
			t.Fatalf("observer changed results at step %d", i)
		}
	}
}
