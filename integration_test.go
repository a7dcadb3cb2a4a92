package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/tinygroups"
)

// Integration tests exercise the full stack — ring → hashes → overlay →
// groups → epoch/pow → tinygroups — through the public API only, across
// every overlay construction and adversary strategy.

func TestIntegrationAllOverlays(t *testing.T) {
	ctx := context.Background()
	for _, ov := range []string{"chord", "debruijn", "viceroy"} {
		ov := ov
		t.Run(ov, func(t *testing.T) {
			sys, err := tinygroups.New(512,
				tinygroups.WithOverlay(ov),
				tinygroups.WithSeed(101),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			// Store, churn one epoch, retrieve.
			stored := 0
			for i := 0; i < 60; i++ {
				if _, err := sys.Put(ctx, fmt.Sprintf("k%d", i), []byte{byte(i)}); err == nil {
					stored++
				}
			}
			if stored < 54 {
				t.Fatalf("only %d/60 puts succeeded on %s", stored, ov)
			}
			st, err := sys.AdvanceEpoch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.SearchFailRate > 0.15 {
				t.Fatalf("%s: post-epoch fail rate %.3f", ov, st.SearchFailRate)
			}
			got := 0
			for i := 0; i < 60; i++ {
				if v, _, err := sys.Get(ctx, fmt.Sprintf("k%d", i)); err == nil && len(v) == 1 && v[0] == byte(i) {
					got++
				}
			}
			if got < 50 {
				t.Fatalf("%s: only %d/60 values retrievable after churn", ov, got)
			}
		})
	}
}

func TestIntegrationAllStrategies(t *testing.T) {
	ctx := context.Background()
	for _, strat := range []tinygroups.Strategy{tinygroups.Uniform, tinygroups.Clustered, tinygroups.NearKey} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			sys, err := tinygroups.New(512,
				tinygroups.WithStrategy(strat),
				tinygroups.WithSeed(103),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			rob, err := sys.Robustness(400)
			if err != nil {
				t.Fatal(err)
			}
			if rob.SearchFailRate > 0.12 {
				t.Errorf("%s: fail rate %.3f exceeds ε budget", strat, rob.SearchFailRate)
			}
			st, err := sys.AdvanceEpoch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.RedFraction[0] > 0.05 {
				t.Errorf("%s: post-epoch red fraction %.3f", strat, st.RedFraction[0])
			}
		})
	}
}

func TestIntegrationMultiEpochStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-epoch run")
	}
	ctx := context.Background()
	sys, err := tinygroups.New(512, tinygroups.WithSeed(104))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for e := 0; e < 6; e++ {
		st, err := sys.AdvanceEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.RedFraction[0] > 0.05 || st.SearchFailRate > 0.15 {
			t.Fatalf("epoch %d: red=%.3f fail=%.3f — drift detected", st.Epoch, st.RedFraction[0], st.SearchFailRate)
		}
	}
	if sys.Epoch() != 6 {
		t.Errorf("epoch counter %d, want 6", sys.Epoch())
	}
}

func TestIntegrationComputePipeline(t *testing.T) {
	ctx := context.Background()
	sys, err := tinygroups.New(512, tinygroups.WithSeed(105))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	correct, total := 0, 0
	for i := 0; i < 50; i++ {
		res, err := sys.Compute(ctx, fmt.Sprintf("job%d", i), i%2)
		if errors.Is(err, tinygroups.ErrUnreachable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		total++
		if res.Correct {
			correct++
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.85 {
		t.Errorf("compute pipeline: %d/%d correct", correct, total)
	}
}

// TestIntegrationBatchPipeline drives the batch surface end to end across
// an epoch: batched puts, churn, batched lookups.
func TestIntegrationBatchPipeline(t *testing.T) {
	ctx := context.Background()
	sys, err := tinygroups.New(512, tinygroups.WithSeed(107))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pairs := make([]tinygroups.KV, 80)
	keys := make([]string, len(pairs))
	for i := range pairs {
		keys[i] = fmt.Sprintf("batch-%02d", i)
		pairs[i] = tinygroups.KV{Key: keys[i], Value: []byte{byte(i)}}
	}
	puts, err := sys.PutBatch(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, r := range puts {
		if r.Err == nil {
			stored++
		}
	}
	if stored < 72 {
		t.Fatalf("only %d/80 batched puts landed", stored)
	}
	if _, err := sys.AdvanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := sys.LookupBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	reachable := 0
	for _, r := range res {
		if r.Err == nil {
			reachable++
		}
	}
	if reachable < 72 {
		t.Fatalf("only %d/80 keys reachable after churn", reachable)
	}
}
