package pow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

// Property: Verify is complete (accepts everything Solve produces) and
// sound against σ tampering.
func TestVerifySoundnessProperty(t *testing.T) {
	p := Params{Tau: ring.Point(^uint64(0) >> 4), StringLen: 16} // easy: 1/16
	rng := rand.New(rand.NewSource(81))
	f := func(epochSeed int64, flipByte, flipBit uint8) bool {
		r := EpochString(epochSeed, 0, 16)
		sol, ok := Solve(r, p, rng, 1<<12)
		if !ok {
			return true // no solution found — nothing to check
		}
		if !Verify(sol.ID, sol.Sigma, r, p) {
			return false // completeness
		}
		// Tamper one bit of σ: must fail (either threshold or ID match).
		tampered := make([]byte, len(sol.Sigma))
		copy(tampered, sol.Sigma)
		tampered[int(flipByte)%len(tampered)] ^= 1 << (flipBit % 8)
		return !Verify(sol.ID, tampered, r, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the ID produced by Solve is f(g(σ⊕r)) — recomputable by anyone.
func TestSolveIDDerivationProperty(t *testing.T) {
	p := Params{Tau: ring.Point(^uint64(0) >> 4), StringLen: 16}
	rng := rand.New(rand.NewSource(82))
	r := EpochString(9, 3, 16)
	for i := 0; i < 50; i++ {
		sol, ok := Solve(r, p, rng, 1<<12)
		if !ok {
			continue
		}
		y := hashes.G.Point(hashes.XOR(sol.Sigma, r))
		if y != sol.Y || hashes.F.OfPoint(y) != sol.ID {
			t.Fatal("ID not recomputable from (σ, r)")
		}
	}
}

// Property: the lottery is deterministic in its seed.
func TestLotteryDeterministicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	r := overlay.UniformRing(128, rng)
	adj := BuildAdjacency(overlay.NewChord(r))
	cfg := DefaultLotteryConfig(128, 1<<14)
	cfg.Attack = "split"
	cfg.Seed = 84
	a := RunLottery(cfg, adj)
	b := RunLottery(cfg, adj)
	if a.SimMessages != b.SimMessages || a.MaxSetSize != b.MaxSetSize ||
		a.DistinctWinners != b.DistinctWinners || a.WinnersCovered != b.WinnersCovered {
		t.Errorf("lottery not deterministic: %+v vs %+v", a, b)
	}
}

// Property: mintCount never exceeds attempts and is deterministic per rng
// stream position.
func TestMintCountBoundsProperty(t *testing.T) {
	f := func(seed int64, attemptsRaw uint16, tauRaw uint8) bool {
		attempts := int64(attemptsRaw)
		tau := float64(tauRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		k := mintCount(attempts, tau, rng)
		return k >= 0 && int64(k) <= attempts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: epoch strings differ across epochs and seeds (no reuse — the
// whole point of rotation).
func TestEpochStringUniqueProperty(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		for ep := 0; ep < 8; ep++ {
			s := string(EpochString(seed, ep, 32))
			if seen[s] {
				t.Fatalf("epoch string reused at seed=%d epoch=%d", seed, ep)
			}
			seen[s] = true
		}
	}
}
