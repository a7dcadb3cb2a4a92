package epoch

import (
	"context"
	"sync/atomic"
	"testing"
)

// twoPhaseConfig is a small-but-nontrivial config for the build/commit
// split tests: spam and departures on, so every construction phase that
// draws randomness runs.
func twoPhaseConfig() Config {
	cfg := DefaultConfig(256)
	cfg.SpamFactor = 1
	cfg.MidEpochDepartures = 0.02
	return cfg
}

// TestBuildCommitMatchesRunEpoch pins the two-phase split against the
// one-shot path: Build+Commit must produce the identical Stats, epoch
// counter, and generation fingerprint as RunEpoch, epoch after epoch.
func TestBuildCommitMatchesRunEpoch(t *testing.T) {
	one, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	two, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()

	for e := 1; e <= 4; e++ {
		stOne := one.RunEpoch()

		stBuild, err := two.BuildEpochContext(context.Background())
		if err != nil {
			t.Fatalf("epoch %d: build: %v", e, err)
		}
		if !two.HasPending() {
			t.Fatalf("epoch %d: no pending generation after build", e)
		}
		if two.Epoch() != e-1 {
			t.Fatalf("epoch %d: build advanced the epoch to %d", e, two.Epoch())
		}
		stCommit, ok := two.CommitEpoch()
		if !ok {
			t.Fatalf("epoch %d: commit reported no pending build", e)
		}
		if stBuild != stCommit {
			t.Fatalf("epoch %d: build stats %+v != commit stats %+v", e, stBuild, stCommit)
		}
		if stOne != stCommit {
			t.Fatalf("epoch %d: one-shot stats %+v != two-phase stats %+v", e, stOne, stCommit)
		}
		if got, want := graphFingerprint(two.Graphs()), graphFingerprint(one.Graphs()); got != want {
			t.Fatalf("epoch %d: two-phase generation fingerprint diverged from RunEpoch", e)
		}
	}
}

// TestBuildIdempotentWhilePending pins that a second build with a build
// already parked recomputes nothing and returns the parked Stats.
func TestBuildIdempotentWhilePending(t *testing.T) {
	s, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.BuildEpochContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mark := s.rsrc.n
	second, err := s.BuildEpochContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("idempotent build returned different stats: %+v vs %+v", first, second)
	}
	if s.rsrc.n != mark {
		t.Fatalf("idempotent build consumed %d rng draws", s.rsrc.n-mark)
	}
}

// TestCommitWithoutPending pins the no-op contract of a bare commit.
func TestCommitWithoutPending(t *testing.T) {
	s, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.CommitEpoch(); ok {
		t.Fatal("CommitEpoch reported ok with no pending build")
	}
	if s.Epoch() != 0 {
		t.Fatalf("bare commit advanced the epoch to %d", s.Epoch())
	}
	if s.AbortPending() {
		t.Fatal("AbortPending reported a discarded build with none pending")
	}
}

// TestAbortPendingReplaysIdentical is the cluster-lockstep property: a
// system that builds, aborts, and rebuilds must commit the byte-identical
// generation a never-aborted system commits, because AbortPending rewinds
// the placement rng to its pre-build state.
func TestAbortPendingReplaysIdentical(t *testing.T) {
	plain, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	aborted, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer aborted.Close()

	stPlain := plain.RunEpoch()

	mark := aborted.rsrc.n
	if _, err := aborted.BuildEpochContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if aborted.rsrc.n == mark {
		t.Fatal("test vacuous: build consumed no rng draws")
	}
	if !aborted.AbortPending() {
		t.Fatal("AbortPending found nothing to discard")
	}
	if aborted.HasPending() {
		t.Fatal("build still pending after abort")
	}
	if aborted.rsrc.n != mark {
		t.Fatalf("abort rewound to %d draws, want %d", aborted.rsrc.n, mark)
	}
	stReplay, err := aborted.BuildEpochContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stReplay != stPlain {
		t.Fatalf("replayed build stats %+v != never-aborted stats %+v", stReplay, stPlain)
	}
	if _, ok := aborted.CommitEpoch(); !ok {
		t.Fatal("commit after replay found nothing pending")
	}
	if got, want := graphFingerprint(aborted.Graphs()), graphFingerprint(plain.Graphs()); got != want {
		t.Fatal("replayed generation fingerprint diverged from never-aborted build")
	}
}

// errAfterCtx is a context whose Err flips to Canceled after a fixed
// number of Err() polls — a deterministic way to cancel an epoch build
// mid-construction (after placement has drawn from the system rng but
// before the build completes), which a real timer cannot do reproducibly.
type errAfterCtx struct {
	context.Context
	polls int32
	after int32
}

func (c *errAfterCtx) Err() error {
	if atomic.AddInt32(&c.polls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestMidBuildAbortReplaysIdentical pins the rewind across a build that
// dies partway: placement already consumed rng draws when the context
// cancels, the abort rewinds them, and the retried epoch replays the
// identical generation a never-cancelled system builds.
func TestMidBuildAbortReplaysIdentical(t *testing.T) {
	plain, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cancelled, err := New(twoPhaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cancelled.Close()

	stPlain := plain.RunEpoch()

	// Survive a handful of polls (placement happens before the first
	// mid-build poll), then cancel.
	mark := cancelled.rsrc.n
	ctx := &errAfterCtx{Context: context.Background(), after: 3}
	if _, err := cancelled.BuildEpochContext(ctx); err == nil {
		t.Fatal("mid-build cancellation did not surface an error")
	}
	if cancelled.HasPending() {
		t.Fatal("cancelled build left a pending generation")
	}
	if cancelled.rsrc.n != mark {
		t.Fatalf("abort left rng at %d draws, want the pre-build mark %d", cancelled.rsrc.n, mark)
	}

	st, err := cancelled.RunEpochContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st != stPlain {
		t.Fatalf("post-abort stats %+v != never-cancelled stats %+v", st, stPlain)
	}
	if got, want := graphFingerprint(cancelled.Graphs()), graphFingerprint(plain.Graphs()); got != want {
		t.Fatal("post-abort generation fingerprint diverged from never-cancelled build")
	}
}
