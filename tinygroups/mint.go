package tinygroups

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/pow"
	"repro/internal/ring"
)

// MintResult is one solved identity puzzle: the ID admitted for the
// current epoch, the pre-image σ that backs it, and the solve cost.
type MintResult struct {
	// ID is f(g(σ⊕r)) — uniform in the ID space even for an adversary that
	// cherry-picks inputs (§IV-A's two-hash composition).
	ID Point
	// Sigma is the pre-image to present for verification. It stays valid
	// only while the epoch string that minted it is current.
	Sigma []byte
	// Epoch is the epoch the ID was minted against.
	Epoch int
	// Attempts is the number of hash attempts the solve consumed.
	Attempts int
}

// MintClaim pairs a claimed ID with its pre-image for VerifyMints.
type MintClaim struct {
	ID    Point
	Sigma []byte
}

// Mint solves the §IV identity puzzle against the current epoch string and
// returns the resulting ID. The solve runs on the caller's goroutine plus
// the configured worker fan-out (WithWorkers), entirely on the lock-free
// read path: it never blocks writers and writers never block it, though an
// epoch advance that lands mid-solve leaves the result minted against the
// epoch that started it (verification against the new string then fails —
// exactly the expiry the paper wants).
//
// The result is a pure function of (system seed, epoch, miner):
// byte-identical at every worker count.
// ctx cancellation aborts the solve at chunk granularity.
func (s *System) Mint(ctx context.Context, miner string) (MintResult, error) {
	out, err := s.MintBatch(ctx, miner, 1)
	if err != nil {
		return MintResult{}, err
	}
	return out[0], nil
}

// MintBatch mints count distinct IDs for one miner in a single call. Each
// item solves an independent puzzle — item k's solver stream is derived
// from (seed, epoch, miner, k) — so a batch costs count full solves, and
// the batch is the same pure function of its coordinates as count single
// Mints. Items are returned in index order.
func (s *System) MintBatch(ctx context.Context, miner string, count int) ([]MintResult, error) {
	if count < 1 {
		return nil, fmt.Errorf("%w: mint count %d (need ≥ 1)", ErrBadConfig, count)
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	snap := s.snap.Load()
	m := &snap.mint
	// Budget: 64× the expected attempts per solution leaves a no-solution
	// probability of e^-64 per item; floor it so tiny difficulties still
	// get a real search space.
	budget := int(s.cfg.mintWork * 64)
	if budget < 1<<16 {
		budget = 1 << 16
	}
	minerSeed := engine.TrialSeed(m.seed, miner, 0)
	out := make([]MintResult, 0, count)
	for k := 0; k < count; k++ {
		sol, ok, err := pow.SolveShardedContext(ctx, m.r, m.p, engine.TrialSeed(minerSeed, "item", k), budget, s.cfg.workers)
		if err != nil {
			return out, err
		}
		if !ok {
			return out, fmt.Errorf("%w: no solution in %d attempts at work %g", ErrMintFailed, budget, s.cfg.mintWork)
		}
		out = append(out, MintResult{
			ID: Point(sol.ID), Sigma: sol.Sigma, Epoch: snap.gen.Epoch, Attempts: sol.Attempts,
		})
	}
	return out, nil
}

// VerifyMints checks claimed identities against the current epoch string
// on the configured worker fan-out and returns per-claim verdicts in input
// order. Claims minted in an earlier epoch fail — the paper's ID expiry.
// Like Mint it runs entirely on the lock-free read path.
func (s *System) VerifyMints(ctx context.Context, claims []MintClaim) ([]bool, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := s.snap.Load()
	pc := make([]pow.Claim, len(claims))
	for i, c := range claims {
		pc[i] = pow.Claim{ID: ring.Point(c.ID), Sigma: c.Sigma}
	}
	return pow.VerifyBatch(pc, snap.mint.r, snap.mint.p, s.cfg.workers), nil
}

// MintWork returns the mint difficulty in expected hash attempts per ID,
// as set by WithMintWork.
func (s *System) MintWork() float64 { return s.cfg.mintWork }
