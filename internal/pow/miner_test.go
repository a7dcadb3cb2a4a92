package pow

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/hashes"
	"repro/internal/ring"
)

// TestSolveShardedWorkStealingDeterminism is the solver determinism gate:
// the work-stealing scheduler must return byte-identical solutions at the
// worker counts the acceptance criteria name.
func TestSolveShardedWorkStealingDeterminism(t *testing.T) {
	p := Params{Tau: ^ring.Point(0) >> 9, StringLen: 32}
	for seed := int64(1); seed <= 8; seed++ {
		r := EpochString(seed, 3, p.StringLen)
		ref, refOK := SolveSharded(r, p, seed, 1<<14, 1)
		for _, workers := range []int{2, 4, 16} {
			got, ok := SolveSharded(r, p, seed, 1<<14, workers)
			if ok != refOK {
				t.Fatalf("seed %d workers %d: ok=%v, want %v", seed, workers, ok, refOK)
			}
			if !ok {
				continue
			}
			if !bytes.Equal(got.Sigma, ref.Sigma) || got.Y != ref.Y || got.ID != ref.ID || got.Attempts != ref.Attempts {
				t.Fatalf("seed %d workers %d: solution diverged: got %+v want %+v",
					seed, workers, got, ref)
			}
		}
	}
}

// TestShardSigmaCounterMode pins the counter-mode structure of the σ
// stream: within a chunk consecutive candidates differ only in the 8-byte
// counter field, and crossing a chunk boundary swaps the base block.
func TestShardSigmaCounterMode(t *testing.T) {
	const length = 32
	seed := int64(7)

	// Same chunk: bytes past the counter are the shared base block.
	a, b := shardSigma(seed, 10, length), shardSigma(seed, 11, length)
	if bytes.Equal(a[:counterBytes], b[:counterBytes]) {
		t.Fatalf("counter fields did not change between attempts")
	}
	if !bytes.Equal(a[counterBytes:], b[counterBytes:]) {
		t.Fatalf("base block changed within one chunk")
	}

	// Chunk boundary: attempt mineChunk is the last of chunk 0, mineChunk+1
	// the first of chunk 1 — their tails must come from different bases.
	last, first := shardSigma(seed, mineChunk, length), shardSigma(seed, mineChunk+1, length)
	if bytes.Equal(last[counterBytes:], first[counterBytes:]) {
		t.Fatalf("base block did not rotate across the chunk boundary")
	}

	// The mapping stays a pure function of (seed, a).
	if !bytes.Equal(shardSigma(seed, 10, length), a) {
		t.Fatalf("shardSigma is not deterministic")
	}
}

// TestMinerScanMatchesShardSigma cross-checks the arena fast path and the
// generic fallback against the public per-index mapping: whatever index
// scan reports as solving must be the smallest solving index per
// shardSigma + Verify semantics over the scanned range.
func TestMinerScanMatchesShardSigma(t *testing.T) {
	for _, stringLen := range []int{32, 100} { // 100 > arenaBytes forces scanSlow
		p := Params{Tau: ^ring.Point(0) >> 7, StringLen: stringLen}
		seed := int64(41)
		r := EpochString(seed, 1, stringLen)
		m := newMiner(r, p, seed)
		if (stringLen <= arenaBytes) != m.fast {
			t.Fatalf("StringLen %d: fast=%v, want %v", stringLen, m.fast, stringLen <= arenaBytes)
		}
		for chunk := int64(0); chunk < 4; chunk++ {
			lo, hi := chunk*mineChunk+1, (chunk+1)*mineChunk
			got, found := m.scan(lo, hi)
			want, wantFound := int64(0), false
			for a := lo; a <= hi && !wantFound; a++ {
				if solves(shardSigma(seed, a, stringLen), r, p) {
					want, wantFound = a, true
				}
			}
			if found != wantFound || got != want {
				t.Fatalf("StringLen %d chunk %d: scan=(%d,%v), want (%d,%v)",
					stringLen, chunk, got, found, want, wantFound)
			}
		}
	}
}

// TestMinerScanAllocs gates the zero-allocation guarantee of the hot loop:
// once the miner's buffers exist, scanning a chunk must not touch the heap.
func TestMinerScanAllocs(t *testing.T) {
	p := Params{Tau: 0, StringLen: 32} // never solves: scan covers the full chunk
	seed := int64(5)
	r := EpochString(seed, 1, p.StringLen)
	m := newMiner(r, p, seed)
	lo := int64(1)
	if n := testing.AllocsPerRun(20, func() {
		m.scan(lo, lo+mineChunk-1)
		lo += mineChunk
	}); n != 0 {
		t.Fatalf("scan allocates %.1f times per chunk, want 0", n)
	}
}

// TestSolveShardedContextCancel: a pre-cancelled context returns its error
// without scanning the attempt space.
func TestSolveShardedContextCancel(t *testing.T) {
	p := Params{Tau: 0, StringLen: 32} // unsolvable, so only cancellation can stop early
	r := EpochString(1, 1, p.StringLen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, ok, err := SolveShardedContext(ctx, r, p, 1, 1<<30, 4)
	if ok || err != context.Canceled {
		t.Fatalf("got ok=%v err=%v, want ok=false err=context.Canceled", ok, err)
	}
}

// TestEpochStringFieldPacking is the regression test for the old packed
// encoding (epoch<<20 | counter): epochs differing above bit 44 shifted
// their difference off the top of the uint64 and produced identical
// strings. Separate fixed-width fields cannot alias.
func TestEpochStringFieldPacking(t *testing.T) {
	seed := int64(99)
	if bytes.Equal(EpochString(seed, 1, 32), EpochString(seed, 1+(1<<44), 32)) {
		t.Fatalf("EpochString collides for epochs differing above bit 44")
	}
	// And the counter field can no longer bleed into the epoch field:
	// a multi-block string's second block (epoch e, counter 1) must differ
	// from another epoch's first block even when the old packed keys
	// matched (e<<20|1 vs (e+…)<<20|0 style overlaps).
	long := EpochString(seed, 2, 64)
	if bytes.Equal(long[:32], long[32:]) {
		t.Fatalf("consecutive blocks of one epoch string are identical")
	}
}

// solves is a test helper: does sigma solve the puzzle against r?
func solves(sigma, r []byte, p Params) bool {
	return hashes.G.Point(hashes.XOR(sigma, r)) <= p.Tau
}
