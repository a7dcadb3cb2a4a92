package pow

import (
	"math/rand"
)

// PrecomputeResult compares the adversary's usable IDs per epoch with and
// without epoch-string rotation (§IV-B: the pre-computation attack).
type PrecomputeResult struct {
	Epochs int
	// UsableWithRotation[j] is the number of adversary IDs valid in epoch
	// j when IDs must be signed with the fresh epoch string: only the
	// solutions minted inside the paper's 3·(T/2)-step window survive.
	UsableWithRotation []int
	// UsableWithoutRotation[j] is the hoard size when the puzzle never
	// changes: every solution ever found stays valid.
	UsableWithoutRotation []int
}

// RunPrecompute simulates `epochs` epochs. Per epoch the adversary spends
// advPerEpoch attempts. With rotation, solutions expire when the string
// they were signed with rotates out (valid for the epoch they target
// only); without rotation they accumulate without bound — the attack the
// random strings exist to stop.
func RunPrecompute(epochs int, advPerEpoch int64, tau float64, rng *rand.Rand) PrecomputeResult {
	res := PrecomputeResult{
		Epochs:                epochs,
		UsableWithRotation:    make([]int, epochs),
		UsableWithoutRotation: make([]int, epochs),
	}
	hoard := 0
	for j := 0; j < epochs; j++ {
		minted := mintCount(advPerEpoch, tau, rng)
		// With rotation: Lemma 11's accounting lets the adversary apply at
		// most the compute of 1.5 epochs (last half of the previous plus
		// the current) toward IDs for epoch j; everything older is signed
		// by an expired string and fails verification.
		window := minted + mintCount(advPerEpoch/2, tau, rng)
		res.UsableWithRotation[j] = window
		// Without rotation: the hoard only grows.
		hoard += minted
		res.UsableWithoutRotation[j] = hoard
	}
	return res
}
