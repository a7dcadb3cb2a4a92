package pow

import (
	"math/rand"
	"time"
)

// RetargetConfig tunes a Retargeter. The zero value is completed by
// defaults: 4× max step, work clamped to [2, 2^40].
type RetargetConfig struct {
	// TargetSolve is the solve time the controller steers toward.
	TargetSolve time.Duration
	// MaxStep bounds the per-observation work multiplier to
	// [1/MaxStep, MaxStep], so one noisy epoch cannot swing the difficulty
	// arbitrarily (the same clamp discipline as Bitcoin's retarget).
	// Must be > 1; 0 means 4.
	MaxStep float64
	// MinWork / MaxWork clamp the absolute difficulty, in expected attempts
	// per solution. 0 means 2 and 2^40 respectively.
	MinWork, MaxWork float64
}

func (c RetargetConfig) withDefaults() RetargetConfig {
	if c.MaxStep <= 1 {
		c.MaxStep = 4
	}
	if c.MinWork < 2 {
		c.MinWork = 2
	}
	if c.MaxWork <= c.MinWork {
		c.MaxWork = 1 << 40
	}
	return c
}

// Retargeter adjusts puzzle difficulty from observed solve times: each
// epoch's mean solve duration is compared against the target, and the
// expected-attempts work factor is scaled by the (clamped) ratio, so spam
// cost tracks the compute actually being thrown at the mint path. The
// trajectory is a pure function of the initial work and the observation
// sequence — no randomness, no wall-clock reads — so deterministic tests
// and replays hold. Not goroutine-safe; callers serialize observations
// (the daemon drives it from the epoch ticker under the write lock).
type Retargeter struct {
	cfg  RetargetConfig
	work float64
}

// NewRetargeter returns a controller starting at initialWork expected
// attempts per solution, clamped into the configured bounds.
func NewRetargeter(initialWork float64, cfg RetargetConfig) *Retargeter {
	cfg = cfg.withDefaults()
	rt := &Retargeter{cfg: cfg, work: clampWork(initialWork, cfg)}
	return rt
}

func clampWork(w float64, cfg RetargetConfig) float64 {
	if w < cfg.MinWork {
		return cfg.MinWork
	}
	if w > cfg.MaxWork {
		return cfg.MaxWork
	}
	return w
}

// Observe feeds one epoch's mean solve duration and returns the updated
// work factor. Solves faster than target raise the work (puzzles were too
// cheap for the available compute); slower solves lower it. Non-positive
// observations are ignored.
func (rt *Retargeter) Observe(meanSolve time.Duration) float64 {
	if meanSolve <= 0 || rt.cfg.TargetSolve <= 0 {
		return rt.work
	}
	ratio := float64(rt.cfg.TargetSolve) / float64(meanSolve)
	if ratio > rt.cfg.MaxStep {
		ratio = rt.cfg.MaxStep
	} else if ratio < 1/rt.cfg.MaxStep {
		ratio = 1 / rt.cfg.MaxStep
	}
	rt.work = clampWork(rt.work*ratio, rt.cfg)
	return rt.work
}

// Work returns the current difficulty in expected attempts per solution.
func (rt *Retargeter) Work() float64 { return rt.work }

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
			badFrac = float64(MintCount(attempts, 1/cfg.MaxWork, rng)) / float64(n)
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
