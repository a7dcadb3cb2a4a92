package baseline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

func TestLogGroupSize(t *testing.T) {
	if s := logGroupSize(8192, 7); s < 60 || s > 66 {
		t.Errorf("logGroupSize(8192, 7) = %d, want ≈63 ([47]'s 64)", s)
	}
	if s := logGroupSize(2, 1); s < 4 {
		t.Errorf("size clamp broken: %d", s)
	}
}

func TestBuildLogGroupsSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pl := adversary.Place(adversary.Config{N: 1024, Beta: 0.1, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	g := BuildLogGroups(ov, pl.BadSet(), groups.DefaultParams(), 2)
	want := logGroupSize(1024, 2)
	if g.GroupSize() != want {
		t.Errorf("group size %d, want %d", g.GroupSize(), want)
	}
	for rank := 0; rank < 16; rank++ {
		grp := g.GroupAt(rank)
		if grp.Size() != want {
			t.Errorf("group has %d members, want %d", grp.Size(), want)
		}
	}
}

func TestLogGroupsMoreRobustButCostlier(t *testing.T) {
	// The paper's trade-off: log-sized groups are at least as robust but
	// pay quadratically more per search than tiny groups.
	rng := rand.New(rand.NewSource(2))
	pl := adversary.Place(adversary.Config{N: 2048, Beta: 0.15, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = 0.15
	tiny := groups.Build(ov, pl.BadSet(), params, hashes.H1)
	logg := BuildLogGroups(ov, pl.BadSet(), params, 2)
	if logg.RedFraction() > tiny.RedFraction() {
		t.Errorf("log groups red fraction %.4f exceeds tiny groups %.4f",
			logg.RedFraction(), tiny.RedFraction())
	}
	rngT := rand.New(rand.NewSource(3))
	robT := tiny.MeasureRobustness(300, rngT)
	rngL := rand.New(rand.NewSource(3))
	robL := logg.MeasureRobustness(300, rngL)
	if robL.MeanMessages < 2*robT.MeanMessages {
		t.Errorf("log groups should cost ≫ tiny groups per search: %v vs %v",
			robL.MeanMessages, robT.MeanMessages)
	}
}

func TestCuckooSurvivesWithLargeGroups(t *testing.T) {
	// [47]'s positive finding, scaled down: big groups + tiny β survive a
	// long attack.
	res := RunCuckoo(CuckooConfig{
		N: 1024, Beta: 0.002, K: 4, GroupSize: 64,
		Events: 5000, Targeted: true, Seed: 3,
	})
	if !res.Survived {
		t.Errorf("|G|=64 at β=0.002 should survive 5000 events, died at %d", res.SurvivedEvents)
	}
}

func TestCuckooTinyGroupsDie(t *testing.T) {
	// The negative finding motivating the paper: tiny groups under the
	// cuckoo rule (no PoW) are quickly compromised by the join-leave
	// attack at a β the PoW construction tolerates easily.
	res := RunCuckoo(CuckooConfig{
		N: 1024, Beta: 0.05, K: 4, GroupSize: 8,
		Events: 20000, Targeted: true, Seed: 4,
	})
	if res.Survived {
		t.Errorf("|G|=8 at β=0.05 survived %d events; expected compromise", res.SurvivedEvents)
	}
}

func TestPlainJoinDiesUnderTargetedAttack(t *testing.T) {
	// K=0 disables eviction: the undefended random-join baseline must fall
	// to the join-leave ratchet at parameters where even the cuckoo rule
	// struggles (small groups, moderate β).
	plain := RunCuckoo(CuckooConfig{N: 512, Beta: 0.03, K: 0, GroupSize: 16, Events: 10000, Targeted: true, Seed: 5})
	if plain.Survived {
		t.Errorf("undefended join survived %d targeted events at |G|=16, β=0.03", plain.SurvivedEvents)
	}
}

func TestCuckooZeroBetaNeverDies(t *testing.T) {
	res := RunCuckoo(CuckooConfig{N: 256, Beta: 0, K: 4, GroupSize: 16, Events: 100, Seed: 6})
	if !res.Survived || res.MaxBadFraction != 0 {
		t.Errorf("no adversary: survived=%v maxBad=%v", res.Survived, res.MaxBadFraction)
	}
}

// checkCuckooState fails t unless the sim's indexes agree: n occupants in
// total and per group region, ⌊βn⌋ bad ones, every bucket sorted and inside
// its k-region, and the bad list sorted with each point in its bucket.
func checkCuckooState(t *testing.T, s *cuckooSim, event int) {
	t.Helper()
	n := s.cfg.N
	occupants, tot, bad := 0, 0, 0
	for k, b := range s.kreg {
		occupants += len(b)
		if !slices.IsSorted(b) {
			t.Fatalf("event %d: bucket %d not sorted", event, k)
		}
		for _, p := range b {
			if got := regionIndex(p, len(s.kreg)); got != k {
				t.Fatalf("event %d: %v in bucket %d, belongs in %d", event, p, k, got)
			}
		}
	}
	for r := range s.regTot {
		tot += s.regTot[r]
		bad += s.regBad[r]
	}
	wantBad := int(s.cfg.Beta * float64(n))
	if occupants != n || tot != n {
		t.Fatalf("event %d: %d occupants, %d by group region; want %d", event, occupants, tot, n)
	}
	if bad != wantBad || len(s.bad) != wantBad {
		t.Fatalf("event %d: %d bad by group region, %d listed; want %d", event, bad, len(s.bad), wantBad)
	}
	if !slices.IsSorted(s.bad) {
		t.Fatalf("event %d: bad list not sorted", event)
	}
	for _, p := range s.bad {
		if _, ok := slices.BinarySearch(*s.bucket(p), p); !ok {
			t.Fatalf("event %d: bad %v missing from its bucket", event, p)
		}
	}
}

func TestCuckooPopulationConserved(t *testing.T) {
	// Each event is a leave+rejoin: every index must still count N nodes,
	// ⌊βN⌋ of them bad. N/K = 62 is not a power of two, so the short top
	// k-region is exercised too; K = |G| = N leaves one k-region and one
	// group region, the whole ring.
	for _, cfg := range []CuckooConfig{
		{N: 256, Beta: 0.05, K: 4, GroupSize: 16, Targeted: true, Seed: 7},
		{N: 250, Beta: 0.1, K: 4, GroupSize: 10, Seed: 8},
		{N: 256, Beta: 0.05, K: 0, GroupSize: 16, Seed: 9},
		{N: 16, Beta: 0.25, K: 16, GroupSize: 16, Targeted: true, Seed: 10},
	} {
		s := newCuckooSim(cfg)
		checkCuckooState(t, s, 0)
		for e := 1; e <= 500; e++ {
			if !s.step() {
				t.Fatalf("%+v: no bad node to churn at event %d", cfg, e)
			}
			checkCuckooState(t, s, e)
		}
	}
}

func TestCuckooTopKRegionEvicts(t *testing.T) {
	// N/K = 250 k-regions: the top one is short and ends at 2⁶⁴ − 1. A join
	// landing in it must evict its occupants like any other.
	s := newCuckooSim(CuckooConfig{N: 1000, K: 4, GroupSize: 8, Seed: 10})
	top := len(s.kreg) - 1
	if top != 249 {
		t.Fatalf("%d k-regions, want 250", top+1)
	}
	before := slices.Clone(s.kreg[top])
	if len(before) == 0 {
		t.Fatal("top k-region empty after bootstrap; pick another seed")
	}
	// Find a seed whose first draw (the joiner's position) is in the top
	// k-region, and join with it.
	for seed := int64(0); ; seed++ {
		if regionIndex(ring.Point(rand.New(rand.NewSource(seed)).Uint64()), len(s.kreg)) == top {
			s.rng = rand.New(rand.NewSource(seed))
			break
		}
	}
	s.join(false)
	for _, p := range before {
		if slices.Contains(s.kreg[top], p) {
			t.Errorf("join in the top k-region left occupant %v in place", p)
		}
	}
}

func TestGroupSizeSurvivalMonotone(t *testing.T) {
	// The [47] trade-off: survival time should (weakly) increase with
	// group size at fixed β.
	events := func(g int) int {
		r := RunCuckoo(CuckooConfig{N: 512, Beta: 0.04, K: 4, GroupSize: g, Events: 30000, Targeted: true, Seed: 8})
		return r.SurvivedEvents
	}
	small, large := events(8), events(64)
	if small > large {
		t.Errorf("survival not monotone in group size: |G|=8 → %d, |G|=64 → %d", small, large)
	}
	if math.Abs(float64(small-large)) == 0 && small == 30000 {
		t.Log("both survived the full run; weak check only")
	}
}
