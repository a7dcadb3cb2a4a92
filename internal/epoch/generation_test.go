package epoch

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ring"
)

// checkIndexes recomputes a generation's rank indexes independently — a
// scan of the ring against a set built from the adversary's list, and each
// graph's Red() — and compares them with the ones newGeneration derived.
func checkIndexes(t *testing.T, where string, gen *Generation) {
	t.Helper()
	bad := map[ring.Point]bool{}
	for _, b := range gen.badList {
		bad[b] = true
	}
	var badRank []bool
	var goodRank, blueRank []int32
	for i, p := range gen.Ring.Points() {
		badRank = append(badRank, bad[p])
		if !bad[p] {
			goodRank = append(goodRank, int32(i))
		}
		blue := true
		for _, g := range gen.Graphs {
			if g != nil && g.GroupAt(i).Red() {
				blue = false
			}
		}
		if blue {
			blueRank = append(blueRank, int32(i))
		}
	}
	if len(bad) != len(gen.badList) || gen.BadCount() != len(gen.badList) {
		t.Fatalf("%s: %d distinct bad IDs, list of %d, BadCount %d", where, len(bad), len(gen.badList), gen.BadCount())
	}
	if !slices.Equal(gen.badRank, badRank) {
		t.Errorf("%s: badRank differs from a ring scan", where)
	}
	if !slices.Equal(gen.goodRank, goodRank) {
		t.Errorf("%s: goodRank differs from a ring scan", where)
	}
	if !slices.Equal(gen.blueRank, blueRank) {
		t.Errorf("%s: blueRank differs from the graphs' Red()", where)
	}
}

// TestGenerationIndexesIndependentOfOrigin: the derived indexes are the
// same function of (ring, adversary list, graphs) whether the generation
// came from New, an epoch build or Restore.
func TestGenerationIndexesIndependentOfOrigin(t *testing.T) {
	cfg := DefaultConfig(1024)
	cfg.Seed = 17
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, "New", s.Generation())
	for e := 1; e <= 3; e++ {
		s.RunEpoch()
		checkIndexes(t, "RunEpoch", s.Generation())
	}
	restored, err := Restore(cfg, s.Persist())
	if err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, "Restore", restored.Generation())
}

// TestCommitEpochIsAPointerSwap: every derived index is built with the
// generation, so committing a pending build allocates nothing.
func TestCommitEpochIsAPointerSwap(t *testing.T) {
	cfg := DefaultConfig(1024)
	cfg.Seed = 19
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildEpochContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	pending := s.pending.gen
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := s.CommitEpoch()
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatal("commit reported no pending build")
	}
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("CommitEpoch made %d mallocs, want 0", d)
	}
	if s.Generation() != pending {
		t.Error("CommitEpoch did not publish the pending generation")
	}
}
