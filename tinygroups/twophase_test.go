package tinygroups

import (
	"context"
	"errors"
	"testing"
)

// TestBuildCommitMatchesAdvance pins the public two-phase split against
// the one-shot AdvanceEpoch: same Stats, same serving fingerprint, same
// lookup answers, epoch after epoch.
func TestBuildCommitMatchesAdvance(t *testing.T) {
	one := newTest(t, 256, 0.05, WithSeed(7))
	two := newTest(t, 256, 0.05, WithSeed(7))
	ctx := context.Background()

	for e := 1; e <= 3; e++ {
		stOne, err := one.AdvanceEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}

		preFP := two.Fingerprint()
		stBuild, err := two.BuildEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !two.HasPendingEpoch() {
			t.Fatalf("epoch %d: nothing pending after BuildEpoch", e)
		}
		if two.Epoch() != e-1 || two.Fingerprint() != preFP {
			t.Fatalf("epoch %d: BuildEpoch changed the serving generation", e)
		}
		stCommit, err := two.CommitEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if stBuild != stCommit {
			t.Fatalf("epoch %d: build stats != commit stats", e)
		}
		if stOne != stCommit {
			t.Fatalf("epoch %d: one-shot stats %+v != two-phase stats %+v", e, stOne, stCommit)
		}
		if one.Fingerprint() != two.Fingerprint() {
			t.Fatalf("epoch %d: two-phase fingerprint diverged from AdvanceEpoch", e)
		}
		for _, key := range []string{"alpha", "beta", "gamma"} {
			a, errA := one.Lookup(ctx, key)
			b, errB := two.Lookup(ctx, key)
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("epoch %d: lookup(%q) diverged: %+v/%v vs %+v/%v", e, key, a, errA, b, errB)
			}
		}
	}
}

// TestAbortEpochReplaysIdentical pins the cluster-lockstep property at the
// public layer: build, abort, then one-shot advance must land on the exact
// generation a never-aborted system lands on.
func TestAbortEpochReplaysIdentical(t *testing.T) {
	plain := newTest(t, 256, 0.05, WithSeed(11))
	aborted := newTest(t, 256, 0.05, WithSeed(11))
	ctx := context.Background()

	stPlain, err := plain.AdvanceEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := aborted.BuildEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	ok, err := aborted.AbortEpoch()
	if err != nil || !ok {
		t.Fatalf("AbortEpoch = %v, %v; want true, nil", ok, err)
	}
	if aborted.HasPendingEpoch() {
		t.Fatal("build still pending after AbortEpoch")
	}
	st, err := aborted.AdvanceEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st != stPlain {
		t.Fatalf("post-abort stats %+v != never-aborted stats %+v", st, stPlain)
	}
	if aborted.Fingerprint() != plain.Fingerprint() {
		t.Fatal("post-abort fingerprint diverged from never-aborted system")
	}
}

// TestCommitEpochNoPending pins the ErrNoPending contract, and that a
// bare abort is a reported no-op.
func TestCommitEpochNoPending(t *testing.T) {
	s := newTest(t, 256, 0.05)
	if _, err := s.CommitEpoch(); !errors.Is(err, ErrNoPending) {
		t.Fatalf("CommitEpoch with nothing pending = %v; want ErrNoPending", err)
	}
	ok, err := s.AbortEpoch()
	if err != nil || ok {
		t.Fatalf("AbortEpoch with nothing pending = %v, %v; want false, nil", ok, err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("bare commit/abort advanced the epoch to %d", s.Epoch())
	}
}

// TestTwoPhaseClosed pins ErrClosed on every two-phase entry point.
func TestTwoPhaseClosed(t *testing.T) {
	s := newTest(t, 256, 0.05)
	s.Close()
	if _, err := s.BuildEpoch(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("BuildEpoch on closed system = %v; want ErrClosed", err)
	}
	if _, err := s.CommitEpoch(); !errors.Is(err, ErrClosed) {
		t.Fatalf("CommitEpoch on closed system = %v; want ErrClosed", err)
	}
	if _, err := s.AbortEpoch(); !errors.Is(err, ErrClosed) {
		t.Fatalf("AbortEpoch on closed system = %v; want ErrClosed", err)
	}
}

// TestFingerprintIdentifiesGeneration pins that fingerprints separate
// epochs and seeds but agree across independently-built equal systems, and
// that the per-generation memo behind Fingerprint is stable across calls,
// untouched by a parked build, replaced by CommitEpoch, and always equal to
// a fresh hash of the serving generation.
func TestFingerprintIdentifiesGeneration(t *testing.T) {
	ctx := context.Background()
	a := newTest(t, 256, 0.05, WithSeed(3))
	b := newTest(t, 256, 0.05, WithSeed(3))
	c := newTest(t, 256, 0.05, WithSeed(4))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same-seed systems disagree at epoch 0")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds collide at epoch 0")
	}
	fp0 := a.Fingerprint()
	if _, err := a.BuildEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != fp0 {
		t.Fatal("fingerprint moved while the built epoch was only parked")
	}
	if _, err := a.CommitEpoch(); err != nil {
		t.Fatal(err)
	}
	fp1 := a.Fingerprint()
	if fp1 == fp0 {
		t.Fatal("fingerprint unchanged across an epoch commit")
	}
	if again := a.Fingerprint(); again != fp1 {
		t.Fatalf("fingerprint not stable across calls: %s then %s", fp1, again)
	}
	if fresh := fingerprintOf(a.snap.Load().gen); fresh != fp1 {
		t.Fatalf("memoised fingerprint %s != fresh hash %s of the serving generation", fp1, fresh)
	}
	// b reaches the same (seed, epoch) by the one-shot path, never having
	// been asked for a fingerprint at epoch 1 before.
	if _, err := b.AdvanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() != fp1 {
		t.Fatal("same-seed systems disagree at epoch 1")
	}
}
