package epoch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adversary"
)

func TestNewValidatesConfig(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Params.Beta = 0.6
	if _, err := New(cfg); err == nil {
		t.Error("invalid beta must be rejected")
	}
	cfg = DefaultConfig(4)
	if _, err := New(cfg); err == nil {
		t.Error("tiny N must be rejected")
	}
	cfg = DefaultConfig(512)
	cfg.Overlay = "nosuch"
	if _, err := New(cfg); err == nil {
		t.Error("unknown overlay must be rejected")
	}
}

func TestTrustedInitBuildsBothGraphs(t *testing.T) {
	cfg := DefaultConfig(512)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graphs()
	if g[0] == nil || g[1] == nil {
		t.Fatal("two-graph mode must build both graphs")
	}
	if g[0].N() != 512 || g[1].N() != 512 {
		t.Errorf("graph sizes %d/%d, want 512", g[0].N(), g[1].N())
	}
	// The two graphs use different hash functions, so memberships differ.
	w := s.Ring().At(0)
	m1, m2 := g[0].Group(w).Members, g[1].Group(w).Members
	same := len(m1) == len(m2)
	if same {
		for i := range m1 {
			if m1[i].ID != m2[i].ID {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("h1 and h2 graphs have identical memberships — dual redundancy is void")
	}
}

func TestSingleGraphMode(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.TwoGraphs = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Graphs()[1] != nil {
		t.Fatal("single-graph mode must not build graph 2")
	}
	st := s.RunEpoch()
	if st.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", st.Epoch)
	}
}

func TestEpochTurnsOverPopulation(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.Seed = 7
	s, _ := New(cfg)
	before := s.Ring().Points()
	beforeSet := map[uint64]bool{}
	for _, p := range before {
		beforeSet[uint64(p)] = true
	}
	s.RunEpoch()
	after := s.Ring().Points()
	overlap := 0
	for _, p := range after {
		if beforeSet[uint64(p)] {
			overlap++
		}
	}
	if overlap > 2 {
		t.Errorf("population overlap %d after full turnover, want ≈0", overlap)
	}
	if s.Epoch() != 1 {
		t.Errorf("epoch counter = %d", s.Epoch())
	}
}

func TestEpochStatsSane(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.Params.Beta = 0.05
	cfg.Seed = 11
	s, _ := New(cfg)
	st := s.RunEpoch()
	if st.Searches == 0 || st.SearchMessages == 0 {
		t.Error("construction must perform searches")
	}
	if st.QfSingle < 0 || st.QfSingle > 1 || st.QfDual > st.QfSingle {
		t.Errorf("qf accounting wrong: single=%v dual=%v", st.QfSingle, st.QfDual)
	}
	if st.RedFraction[0] < 0 || st.RedFraction[0] > 1 {
		t.Error("red fraction out of range")
	}
	if st.MeanMemberships <= 0 {
		t.Error("serving IDs must hold memberships")
	}
}

func TestRobustnessMaintainedOverEpochs(t *testing.T) {
	// Theorem 3 shape at small scale: with two graphs and β=0.05, red
	// fractions and search failure stay low across epochs (no drift).
	cfg := DefaultConfig(512)
	cfg.Params.Beta = 0.05
	cfg.Seed = 13
	s, _ := New(cfg)
	var last Stats
	for e := 0; e < 4; e++ {
		last = s.RunEpoch()
		if last.RedFraction[0] > 0.05 {
			t.Fatalf("epoch %d: red fraction %.3f too high", e+1, last.RedFraction[0])
		}
		if last.SearchFailRate > 0.15 {
			t.Fatalf("epoch %d: search fail rate %.3f too high", e+1, last.SearchFailRate)
		}
	}
	// Lemma 10 shape: memberships are O(log log n) — mean should be near
	// the group size (each serving ID joins ≈|G| groups per graph... the
	// mean equals exactly size since every slot is one membership).
	if last.MeanMemberships > 4*math.Log(math.Log(512))*cfg.Params.D2*2 {
		t.Errorf("mean memberships %.1f not O(log log n)", last.MeanMemberships)
	}
}

func TestVerificationBlocksSpam(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.Params.Beta = 0.10
	cfg.SpamFactor = 5
	cfg.Seed = 17
	s, _ := New(cfg)
	st := s.RunEpoch()
	nBad := int(cfg.Params.Beta * float64(cfg.N))
	spamSent := nBad * cfg.SpamFactor
	if st.SpamAccepted > spamSent/10 {
		t.Errorf("verification on: %d/%d spam accepted", st.SpamAccepted, spamSent)
	}

	cfg.VerifyRequests = false
	cfg.Seed = 17
	s2, _ := New(cfg)
	st2 := s2.RunEpoch()
	if st2.SpamAccepted != spamSent {
		t.Errorf("verification off: %d spam accepted, want all %d", st2.SpamAccepted, spamSent)
	}
}

func TestClusteredAdversaryStillBounded(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Params.Beta = 0.05
	cfg.Strategy = adversary.Clustered
	cfg.Seed = 19
	s, _ := New(cfg)
	st := s.RunEpoch()
	if st.RedFraction[0] > 0.08 {
		t.Errorf("clustered adversary pushed red fraction to %.3f", st.RedFraction[0])
	}
}

func TestDeBruijnOverlayEpochs(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.Overlay = "debruijn"
	cfg.Params.Beta = 0.05
	cfg.Seed = 23
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.RunEpoch()
	if st.SearchFailRate > 0.2 {
		t.Errorf("debruijn overlay: fail rate %.3f", st.SearchFailRate)
	}
}

func TestBootGroupCountScaling(t *testing.T) {
	// O(log n / log log n): grows slowly, e.g. ≈4 at n=1024, ≈5 at n=65536.
	c1 := BootGroupCount(1 << 10)
	c2 := BootGroupCount(1 << 16)
	if c1 < 2 || c2 < c1 || c2 > 3*c1 {
		t.Errorf("BootGroupCount scaling: %d then %d", c1, c2)
	}
	if BootGroupCount(8) != 2 {
		t.Errorf("small-n clamp broken")
	}
}

func TestAssembleBootGoodMajorityWHP(t *testing.T) {
	// Appendix IX: pooling O(log n / log log n) u.a.r. tiny groups yields a
	// good majority w.h.p. — far more reliably than trusting one group.
	cfg := DefaultConfig(2048)
	cfg.Params.Beta = 0.10
	cfg.Seed = 41
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graphs()[0]
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	ok := 0
	for i := 0; i < trials; i++ {
		set := AssembleBoot(g, 0, rng)
		if set.GoodMajority {
			ok++
		}
		if len(set.Members) < g.GroupSize() {
			t.Fatal("boot set too small")
		}
	}
	if rate := float64(ok) / trials; rate < 0.99 {
		t.Errorf("boot good-majority rate %.3f, want ≈1", rate)
	}
}

func TestAssembleBootExplicitCount(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Seed = 43
	s, _ := New(cfg)
	rng := rand.New(rand.NewSource(44))
	set := AssembleBoot(s.Graphs()[0], 3, rng)
	if set.GroupsUsed != 3 {
		t.Errorf("GroupsUsed = %d, want 3", set.GroupsUsed)
	}
	if len(set.Members) != 3*s.Graphs()[0].GroupSize() {
		t.Errorf("pool size %d, want %d", len(set.Members), 3*s.Graphs()[0].GroupSize())
	}
}

func TestMidEpochDeparturesConfig(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.MidEpochDepartures = 0.15
	cfg.Seed = 45
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.RunEpoch()
	if st.DepartedMembers == 0 {
		t.Error("mid-epoch departures did not erode any group")
	}
	if st.SearchFailRate > 0.15 {
		t.Errorf("15%% departures should be survivable, fail rate %.3f", st.SearchFailRate)
	}
}

func TestErosionRegimes(t *testing.T) {
	// The §III departure bound is load-bearing: moderate erosion (well
	// within ε'/2 per group on average) stays stable across epochs, while
	// heavy erosion poisons the graphs the *next* generation is built
	// through — no self-recovery, exactly why the paper assumes the bound
	// holds every epoch.
	run := func(frac float64, epochs int) []float64 {
		cfg := DefaultConfig(512)
		cfg.MidEpochDepartures = frac
		cfg.Seed = 106
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var rates []float64
		for e := 0; e < epochs; e++ {
			rates = append(rates, s.RunEpoch().SearchFailRate)
		}
		return rates
	}
	mild := run(0.10, 3)
	for e, r := range mild {
		if r > 0.15 {
			t.Errorf("10%% erosion should be stable: epoch %d fail rate %.3f", e+1, r)
		}
	}
	heavy := run(0.30, 2)
	if heavy[1] < heavy[0] {
		t.Errorf("heavy erosion should compound into the next construction: %.3f then %.3f",
			heavy[0], heavy[1])
	}
}
