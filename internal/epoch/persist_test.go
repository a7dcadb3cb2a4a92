package epoch

import (
	"reflect"
	"slices"
	"testing"
)

// The Persist/Restore seam must be exact: a restored System is
// indistinguishable from the one that persisted — same serving generation
// and, because the rng state round-trips as a draw count, the same future.
// Running both forward must yield deep-equal persisted states again, at
// any worker count.
func TestPersistRestoreContinuesIdentically(t *testing.T) {
	cfg := DefaultConfig(128)
	cfg.Seed = 11
	cfg.MidEpochDepartures = 0.05 // exercises the reclassified-flags path
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		orig.RunEpoch()
	}
	st := orig.Persist()
	if st.Epoch != 3 || st.RNGCount == 0 {
		t.Fatalf("unexpected persisted header: epoch %d rng %d", st.Epoch, st.RNGCount)
	}
	for _, workers := range []int{1, 4} {
		rcfg := cfg
		rcfg.Workers = workers
		restored, err := Restore(rcfg, st)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got := restored.Persist(); !reflect.DeepEqual(got, st) {
			t.Fatalf("workers %d: restored state differs before any epoch", workers)
		}
		// The restored system's next epoch must be the epoch the original
		// builds next — byte-identical groups, flags and rng advance.
		restored.RunEpoch()
		if workers == 1 {
			orig.RunEpoch()
		}
		if got, want := restored.Persist(), orig.Persist(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: epoch %d diverges after restore", workers, got.Epoch)
		}
	}
}

func TestRestoreRejectsStructuralMismatch(t *testing.T) {
	cfg := DefaultConfig(64)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Persist()

	bad := st
	bad.Graphs = st.Graphs[:1]
	if _, err := Restore(cfg, bad); err == nil {
		t.Fatal("graph-count mismatch accepted")
	}
	bad = st
	bad.Ring = st.Ring[:4]
	if _, err := Restore(cfg, bad); err == nil {
		t.Fatal("tiny ring accepted")
	}
	single := cfg
	single.TwoGraphs = false
	if _, err := Restore(single, st); err == nil {
		t.Fatal("two persisted graphs accepted under single-graph config")
	}
}

// TestRestoreRejectsCorruptBadList: the adversary's list must name distinct
// IDs on the ring — substitutes are drawn from it every later epoch, and
// the generation fingerprint does not hash it.
func TestRestoreRejectsCorruptBadList(t *testing.T) {
	cfg := DefaultConfig(128)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Persist()
	if len(st.BadList) < 2 {
		t.Fatalf("need two bad IDs, have %d", len(st.BadList))
	}

	offRing := st
	offRing.BadList = slices.Clone(st.BadList)
	offRing.BadList[0]++
	for slices.Contains(st.Ring, offRing.BadList[0]) {
		offRing.BadList[0]++
	}
	if _, err := Restore(cfg, offRing); err == nil {
		t.Error("bad ID off the ring accepted")
	}
	dup := st
	dup.BadList = slices.Clone(st.BadList)
	dup.BadList[1] = dup.BadList[0]
	if _, err := Restore(cfg, dup); err == nil {
		t.Error("bad ID listed twice accepted")
	}
	if _, err := Restore(cfg, st); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
}
