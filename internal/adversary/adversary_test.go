package adversary

import (
	"math/rand"
	"testing"

	"repro/internal/ring"
)

func TestUniformPlacementCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Place(Config{N: 1000, Beta: 0.1, Strategy: Uniform}, rng)
	if len(p.Bad) != 100 {
		t.Errorf("bad = %d, want 100", len(p.Bad))
	}
	if len(p.Good) != 900 {
		t.Errorf("good = %d, want 900", len(p.Good))
	}
	if p.N() != 1000 {
		t.Errorf("N = %d, want 1000", p.N())
	}
}

func TestClusteredPlacementRespectsSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Place(Config{N: 2000, Beta: 0.2, Strategy: Clustered, Span: 0.25}, rng)
	limit := ring.FromFloat(0.25)
	for _, b := range p.Bad {
		if b >= limit {
			t.Fatalf("clustered bad ID %v outside [0, 0.25)", b)
		}
	}
	if len(p.Bad) == 0 {
		t.Fatal("clustered placement produced no bad IDs")
	}
	if len(p.Bad) > 400 {
		t.Fatalf("bad = %d exceeds βN = 400", len(p.Bad))
	}
}

func TestNearKeyPlacementConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := ring.FromFloat(0.7)
	p := Place(Config{N: 2000, Beta: 0.1, Strategy: nearKey, Key: key}, rng)
	if len(p.Bad) != 200 {
		t.Fatalf("bad = %d, want 200", len(p.Bad))
	}
	// All bad IDs should be within the nearest quarter of the pool's span:
	// with a 4× pool, the 200 nearest of 800 u.a.r. IDs lie within ~0.25+slack
	// clockwise of the key.
	for _, b := range p.Bad {
		if key.Dist(b) > ring.FromFloat(0.40) {
			t.Errorf("near-key bad ID at clockwise distance %v, want concentrated", key.Dist(b))
		}
	}
}

func TestBadSetMatchesBadSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := Place(Config{N: 500, Beta: 0.1, Strategy: Uniform}, rng)
	set := p.BadSet()
	if len(set) != len(p.Bad) {
		t.Fatalf("BadSet size %d != len(Bad) %d", len(set), len(p.Bad))
	}
	for _, b := range p.Bad {
		if !set[b] {
			t.Fatalf("BadSet missing %v", b)
		}
	}
}

func TestRingHoldsAllIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Place(Config{N: 300, Beta: 0.1, Strategy: Uniform}, rng)
	r := p.Ring()
	if r.Len() != p.N() {
		t.Errorf("ring has %d IDs, want %d (collision chance is negligible)", r.Len(), p.N())
	}
	for _, g := range p.Good[:10] {
		if !r.Contains(g) {
			t.Errorf("ring missing good ID %v", g)
		}
	}
}

func TestZeroBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Place(Config{N: 100, Beta: 0, Strategy: Uniform}, rng)
	if len(p.Bad) != 0 || len(p.Good) != 100 {
		t.Errorf("beta=0: got %d bad, %d good", len(p.Bad), len(p.Good))
	}
}

func TestStrategyStrings(t *testing.T) {
	if Uniform.String() != "uniform" || Clustered.String() != "clustered" || nearKey.String() != "nearkey" {
		t.Error("strategy names wrong")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("unknown strategy should say so")
	}
}

func TestPlacementUniformityOfBadIDs(t *testing.T) {
	// Lemma 11 forces bad IDs to be u.a.r.; Uniform placement must spread
	// them over the ring (bucket test, 8 bins).
	rng := rand.New(rand.NewSource(7))
	p := Place(Config{N: 16000, Beta: 0.25, Strategy: Uniform}, rng)
	var bins [8]int
	for _, b := range p.Bad {
		bins[b>>61]++
	}
	want := float64(len(p.Bad)) / 8
	for i, c := range bins {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Errorf("bin %d has %d bad IDs, want ≈%.0f", i, c, want)
		}
	}
}
