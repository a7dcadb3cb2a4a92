package pow

import (
	"testing"

	"repro/internal/ring"
)

// TestTauForWork pins the work→threshold mapping and its consistency with
// the epoch-sized variant.
func TestTauForWork(t *testing.T) {
	if got := TauForWork(1); got != ^ring.Point(0) {
		t.Fatalf("TauForWork(1) = %v, want max", got)
	}
	if got := TauForWork(2); got != 1<<63 {
		t.Fatalf("TauForWork(2) = %#x, want 1<<63", got)
	}
	if got := TauForWork(1 << 14); got != 1<<50 {
		t.Fatalf("TauForWork(2^14) = %#x, want 1<<50", got)
	}
	// The epoch threshold τ = 2/T of the output space, ^0 / T * 2, targets
	// T/2 expected attempts; for T = 2^15 it is 1<<50 - 2. TauForWork(T/2)
	// must land within rounding of it.
	const te = ring.Point(1<<50 - 2)
	tw := TauForWork(1 << 14)
	diff := int64(te - tw)
	if diff < 0 {
		diff = -diff
	}
	if diff > 1<<20 { // both ≈ 2^50; allow integer-division slack
		t.Fatalf("epoch threshold for T=2^15 %#x vs TauForWork(2^14)=%#x", te, tw)
	}
}
