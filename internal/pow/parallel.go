package pow

import (
	"repro/internal/engine"
	"repro/internal/ring"
)

// The solver half of the parallel PoW layer lives in miner.go (counter-mode
// σ stream, multi-candidate scanning, work-stealing SolveSharded); this file
// keeps the verification half.

// Claim pairs a minted ID with the pre-image backing it, for verification.
type Claim struct {
	ID    ring.Point
	Sigma []byte
}

// VerifyBatch checks many claims against one epoch string across workers
// and returns the per-claim verdicts in input order. It serves the literal
// PoW layer (E6's validation rows, tests, and the /v1/verify endpoint); the
// epoch simulation itself stays on the statistical substitution of mint.go
// and models verification as accept/reject probabilities rather than
// literal hashing. Each claim's verdict is independent, so results never
// depend on scheduling. workers ≤ 0 means GOMAXPROCS.
//
// A Verify costs well under a microsecond, so each worker claims one
// contiguous range of claims rather than one claim at a time.
func VerifyBatch(claims []Claim, r []byte, p Params, workers int) []bool {
	out := make([]bool, len(claims))
	n := len(claims)
	w := min(engine.Workers(workers), n)
	engine.ForEach(w, w, func(_, s int) {
		for i := s * n / w; i < (s+1)*n/w; i++ {
			out[i] = Verify(claims[i].ID, claims[i].Sigma, r, p)
		}
	})
	return out
}
