package pow

import (
	"testing"

	"repro/internal/hashes"
	"repro/internal/ring"
)

func shardParams() Params {
	return Params{Tau: ^ring.Point(0) >> 8, StringLen: 32}
}

// TestSolveShardedDeterministicAcrossWorkers is the sharding contract: the
// winning attempt index is a function of (r, seed, params) only, never of
// the worker count or schedule.
func TestSolveShardedDeterministicAcrossWorkers(t *testing.T) {
	r := EpochString(7, 0, 32)
	p := shardParams()
	base, ok := SolveSharded(r, p, 11, 1<<12, 1)
	if !ok {
		t.Fatal("no solution at tau=2^-8 in 2^12 attempts (p_miss ≈ e^-16)")
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, ok := SolveSharded(r, p, 11, 1<<12, workers)
		if !ok {
			t.Fatalf("workers=%d: no solution", workers)
		}
		if got.Attempts != base.Attempts || got.ID != base.ID || got.Y != base.Y ||
			string(got.Sigma) != string(base.Sigma) {
			t.Errorf("workers=%d: solution diverged: attempts %d vs %d, id %v vs %v",
				workers, got.Attempts, base.Attempts, got.ID, base.ID)
		}
	}
}

// TestSolveShardedFindsSmallestIndex cross-checks against a sequential scan
// of the same deterministic nonce space.
func TestSolveShardedFindsSmallestIndex(t *testing.T) {
	r := EpochString(3, 1, 32)
	p := shardParams()
	const max = 1 << 12
	want := 0
	for a := int64(1); a <= max; a++ {
		sigma := shardSigma(5, a, p.StringLen)
		if hashes.G.Point(hashes.XOR(sigma, r)) <= p.Tau {
			want = int(a)
			break
		}
	}
	if want == 0 {
		t.Fatal("sequential scan found nothing")
	}
	sol, ok := SolveSharded(r, p, 5, max, 4)
	if !ok || sol.Attempts != want {
		t.Fatalf("sharded found index %d (ok=%v), sequential scan found %d", sol.Attempts, ok, want)
	}
}

func TestSolveShardedSolutionVerifies(t *testing.T) {
	r := EpochString(13, 2, 32)
	p := shardParams()
	sol, ok := SolveSharded(r, p, 21, 1<<12, 8)
	if !ok {
		t.Fatal("no solution")
	}
	if !Verify(sol.ID, sol.Sigma, r, p) {
		t.Error("sharded solution failed Verify")
	}
	// An expired (different-epoch) string must reject it.
	if Verify(sol.ID, sol.Sigma, EpochString(13, 3, 32), p) {
		t.Error("solution verified against the wrong epoch string")
	}
}

func TestSolveShardedExhaustsWithoutSolution(t *testing.T) {
	r := EpochString(1, 0, 32)
	// Tau = 0 admits only y == 0: effectively unsolvable.
	p := Params{Tau: 0, StringLen: 32}
	sol, ok := SolveSharded(r, p, 1, 64, 4)
	if ok {
		t.Fatal("found a solution at tau=0")
	}
	if sol.Attempts != 64 {
		t.Errorf("reported %d attempts, want maxAttempts=64", sol.Attempts)
	}
}

func TestVerifyBatchMatchesVerify(t *testing.T) {
	r := EpochString(2, 0, 32)
	p := shardParams()
	var claims []Claim
	for a := int64(1); a <= 64; a++ {
		sigma := shardSigma(9, a, p.StringLen)
		id := hashes.F.OfPoint(hashes.G.Point(hashes.XOR(sigma, r)))
		if a%3 == 0 {
			id++ // corrupt every third claim
		}
		claims = append(claims, Claim{ID: id, Sigma: sigma})
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := VerifyBatch(claims, r, p, workers)
		if len(got) != len(claims) {
			t.Fatalf("workers=%d: %d verdicts for %d claims", workers, len(got), len(claims))
		}
		for i, c := range claims {
			if got[i] != Verify(c.ID, c.Sigma, r, p) {
				t.Errorf("workers=%d: claim %d verdict %v disagrees with Verify", workers, i, got[i])
			}
		}
	}
	if out := VerifyBatch(nil, r, p, 4); len(out) != 0 {
		t.Errorf("empty batch returned %d verdicts", len(out))
	}
}

func TestShardSigmaProperties(t *testing.T) {
	a := shardSigma(1, 1, 32)
	b := shardSigma(1, 1, 32)
	if string(a) != string(b) {
		t.Error("shardSigma not deterministic")
	}
	if string(a) == string(shardSigma(1, 2, 32)) {
		t.Error("adjacent attempt indices produced the same sigma")
	}
	if string(a) == string(shardSigma(2, 1, 32)) {
		t.Error("different seeds produced the same sigma")
	}
	if got := len(shardSigma(1, 1, 48)); got != 48 {
		t.Errorf("sigma length %d, want 48 (multi-block extension)", got)
	}
}
