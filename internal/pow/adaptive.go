package pow

import "math/rand"

// This file explores the paper's concluding open question — "Might there
// be a way to avoid the continual solving of puzzles? Is there an approach
// that would only utilize puzzle solving when malicious IDs are present?"
// — in the spirit of the authors' follow-up direction [22] ("Proof of Work
// Without All the Work").
//
// Model: each epoch opens its minting window at a cheap peacetime
// difficulty. The applicant stream is publicly observable (every new ID
// must announce itself to be admitted), so a minting flood *is* the attack
// signal. After a `Lag` fraction of the window, every verifier switches to
// the worst-case threshold; because Verify re-checks g(σ⊕r) ≤ τ at
// verification time, the flood's cheap solutions are retroactively
// worthless, and honest IDs re-solve at the hard threshold during the rest
// of the window (they hold the capacity — difficulty was lowered, their
// hardware was not).
//
// Consequences, which experiment E19 measures:
//   - honest work per epoch ≈ MinWork in peace, ≈ MaxWork under attack —
//     total honest spend scales with the *fraction of attacked epochs*;
//   - the adversary's admitted IDs stay ≤ β·(1−Lag)·n in loud epochs and
//     ≤ Stealth·n in quiet ones — the Lemma 11 bound is never exceeded;
//   - a grief-everything adversary merely restores the paper's constant
//     worst-case cost.
type AdaptiveConfig struct {
	// MinWork / MaxWork are the expected attempts per honest solution at
	// the peacetime and worst-case thresholds.
	MinWork, MaxWork float64
	// Lag is the fraction of the minting window that elapses before the
	// verifiers react to an anomalous applicant stream.
	Lag float64
	// Stealth caps the applicant excess the adversary can mint without
	// tripping the anomaly detector (as a fraction of n).
	Stealth float64
}

// DefaultAdaptiveConfig returns the controller used in experiment E19.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{MinWork: 1 << 6, MaxWork: 1 << 16, Lag: 0.125, Stealth: 0.01}
}

// AdaptiveEpoch records one epoch of the adaptive simulation.
type AdaptiveEpoch struct {
	Epoch       int
	Attack      bool    // the adversary minted loudly this epoch
	Work        float64 // expected honest attempts per ID this epoch
	BadFraction float64 // adversary IDs admitted / n
}

// AdaptiveResult is the full trajectory.
type AdaptiveResult struct {
	Epochs []AdaptiveEpoch
	// HonestWorkTotal vs FlatWorkTotal: adaptive spend against the paper's
	// always-worst-case baseline.
	HonestWorkTotal, FlatWorkTotal float64
	// PeakBadFraction is the worst per-epoch adversary admission.
	PeakBadFraction float64
}

// RunAdaptive simulates len(attackAt) epochs with n honest IDs and an
// adversary holding a β fraction of compute, attacking loudly exactly in
// the epochs marked true.
func RunAdaptive(cfg AdaptiveConfig, n int, beta float64, attackAt []bool, rng *rand.Rand) AdaptiveResult {
	res := AdaptiveResult{}
	for j, attack := range attackAt {
		var work, badFrac float64
		if attack {
			// Cheap solving for the Lag prefix (wasted once the bump
			// lands), worst-case solving for the remainder.
			work = cfg.MinWork*cfg.Lag + cfg.MaxWork*(1-cfg.Lag)
			// The adversary's post-bump window yields at most
			// β·(1−Lag)·n hard solutions (± sampling noise).
			attempts := int64(beta * float64(n) * (1 - cfg.Lag) * cfg.MaxWork)
			badFrac = float64(mintCount(attempts, 1/cfg.MaxWork, rng)) / float64(n)
		} else {
			work = cfg.MinWork
			// Stealth minting below the anomaly threshold.
			badFrac = cfg.Stealth * rng.Float64()
		}
		res.HonestWorkTotal += work * float64(n)
		res.FlatWorkTotal += cfg.MaxWork * float64(n)
		if badFrac > res.PeakBadFraction {
			res.PeakBadFraction = badFrac
		}
		res.Epochs = append(res.Epochs, AdaptiveEpoch{
			Epoch: j + 1, Attack: attack, Work: work, BadFraction: badFrac,
		})
	}
	return res
}
