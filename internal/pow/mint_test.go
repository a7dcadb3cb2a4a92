package pow

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestBinomialDistributionSanity checks the exact binomial sampler's first
// two moments against Binomial(n, p) across its regimes: inverse transform
// (mean < 10), BTRS (mean ≥ 10), and the complement path (p > 1/2). Bounds
// are ±5 standard errors — loose enough to be deterministic for a fixed
// seed, tight enough to catch any regime mis-routing or pdf-ratio slip.
func TestBinomialDistributionSanity(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{200, 0.01},  // inverse transform, mean 2
		{40, 0.2},    // inverse transform, mean 8
		{500, 0.02},  // BTRS boundary, mean 10
		{300, 0.25},  // BTRS, mean 75
		{100, 0.9},   // complement → inverse transform, mean 90
		{400, 0.75},  // complement → BTRS, mean 300
		{1500, 0.04}, // large n, small p (mean 60, variance 57.6)
	}
	const samples = 200000
	rng := rand.New(rand.NewSource(99))
	for _, c := range cases {
		mean := float64(c.n) * c.p
		variance := mean * (1 - c.p)
		var sum, sumSq float64
		for i := 0; i < samples; i++ {
			k := binomial(c.n, c.p, rng)
			if k < 0 || int64(k) > c.n {
				t.Fatalf("n=%d p=%v: sample %d out of support", c.n, c.p, k)
			}
			kf := float64(k)
			sum += kf
			sumSq += kf * kf
		}
		gotMean := sum / samples
		gotVar := sumSq/samples - gotMean*gotMean
		seMean := math.Sqrt(variance / samples)
		if math.Abs(gotMean-mean) > 5*seMean {
			t.Errorf("n=%d p=%v: mean %.3f, want %.3f ± %.3f", c.n, c.p, gotMean, mean, 5*seMean)
		}
		// Var(sample variance) ≈ (μ₄ − σ⁴)/N; bound loosely via 4σ²·kurtosis
		// margin — a 10%% drift at these sizes is > 20 standard errors.
		if math.Abs(gotVar-variance) > 0.1*variance+5*seMean {
			t.Errorf("n=%d p=%v: variance %.3f, want %.3f", c.n, c.p, gotVar, variance)
		}
	}
}

// TestMintCountRoutesToBinomial pins the branch structure: the regimes the
// old Bernoulli loop served now hit the exact sampler, and the degenerate
// inputs keep their closed forms.
func TestMintCountRoutesToBinomial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if got := mintCount(0, 0.5, rng); got != 0 {
		t.Errorf("0 attempts minted %d", got)
	}
	if got := mintCount(17, 1.0, rng); got != 17 {
		t.Errorf("tau=1 minted %d, want 17", got)
	}
	if got := mintCount(100, 0, rng); got != 0 {
		t.Errorf("tau=0 minted %d", got)
	}
	// Small-attempts sweep cell (the E6/E11 shape): support respected.
	for i := 0; i < 1000; i++ {
		if got := mintCount(50, 0.1, rng); got < 0 || got > 50 {
			t.Fatalf("mintCount out of support: %d", got)
		}
	}
}

// TestBinomialConstantTimeInAttempts guards the satellite's point: sampling
// cost tracks the mean, not the attempt count. The old Bernoulli loop drew
// one uniform per attempt — 10⁸ draws for this case — where the inverse
// transform draws one plus a handful of pdf-ratio steps.
func TestBinomialConstantTimeInAttempts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 2000
	start := time.Now()
	for i := 0; i < trials; i++ {
		binomial(1e8, 2e-8, rng) // mean 2: inverse transform
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("binomial(1e8, 2e-8) took %v for %d trials — linear in attempts?", elapsed, trials)
	}
}
