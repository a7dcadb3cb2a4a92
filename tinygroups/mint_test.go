package tinygroups

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func newMintSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	sys, err := New(64, append([]Option{WithSeed(7), WithMintWork(1 << 8)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// TestMintDeterministicAcrossWorkers: a minted ID is a pure function of
// (seed, epoch, miner) at every worker count.
func TestMintDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var ref MintResult
	for i, workers := range []int{1, 2, 4, 16} {
		sys := newMintSystem(t, WithWorkers(workers))
		got, err := sys.Mint(ctx, "alice")
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if got.ID != ref.ID || !bytes.Equal(got.Sigma, ref.Sigma) || got.Attempts != ref.Attempts || got.Epoch != ref.Epoch {
			t.Fatalf("workers %d: mint diverged: %+v vs %+v", workers, got, ref)
		}
	}
}

// TestMintBatchDistinctAndStable: batch items are distinct independent
// solves, and the batch equals the per-index stream of a fresh system.
func TestMintBatchDistinctAndStable(t *testing.T) {
	ctx := context.Background()
	sys := newMintSystem(t)
	batch, err := sys.MintBatch(ctx, "bob", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("got %d results, want 4", len(batch))
	}
	seen := map[Point]bool{}
	for _, r := range batch {
		if seen[r.ID] {
			t.Fatalf("duplicate minted ID %v in batch", r.ID)
		}
		seen[r.ID] = true
	}
	again, err := newMintSystem(t).MintBatch(ctx, "bob", 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := range batch {
		if batch[k].ID != again[k].ID || !bytes.Equal(batch[k].Sigma, again[k].Sigma) {
			t.Fatalf("batch item %d not stable across systems", k)
		}
	}
}

// TestMintVerifyAndExpiry: a fresh mint verifies; after an epoch advance
// the rotated string must reject it — the paper's ID expiry.
func TestMintVerifyAndExpiry(t *testing.T) {
	ctx := context.Background()
	sys := newMintSystem(t)
	res, err := sys.Mint(ctx, "carol")
	if err != nil {
		t.Fatal(err)
	}
	claims := []MintClaim{
		{ID: res.ID, Sigma: res.Sigma},
		{ID: res.ID + 1, Sigma: res.Sigma}, // forged ID
	}
	verdicts, err := sys.VerifyMints(ctx, claims)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0] || verdicts[1] {
		t.Fatalf("verdicts = %v, want [true false]", verdicts)
	}
	if _, err := sys.AdvanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	verdicts, err = sys.VerifyMints(ctx, claims[:1])
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] {
		t.Fatalf("claim from epoch %d still verifies after the string rotated", res.Epoch)
	}
}

// TestMintErrors covers the failure surface: bad count, closed system,
// cancelled context.
func TestMintErrors(t *testing.T) {
	ctx := context.Background()
	sys := newMintSystem(t)
	if _, err := sys.MintBatch(ctx, "dave", 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("count 0: got %v, want ErrBadConfig", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sys.Mint(cancelled, "dave"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mint: got %v", err)
	}
	sys.Close()
	if _, err := sys.Mint(ctx, "dave"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed mint: got %v, want ErrClosed", err)
	}
	if _, err := sys.VerifyMints(ctx, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed verify: got %v, want ErrClosed", err)
	}
}
