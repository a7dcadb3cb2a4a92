package workload

import (
	"context"
	"fmt"
	"testing"

	"repro/tinygroups"
)

// TestSuccessRateCountsMisses pins what success_rate means: a system that
// misses by design (every key never written) answered every op correctly,
// while one that is unreachable by design answered none.
func TestSuccessRateCountsMisses(t *testing.T) {
	for _, c := range []struct {
		out  Outcome
		want float64
	}{{NotFound, 1}, {Unreachable, 0}} {
		fixed := func(context.Context, Op) (Outcome, error) { return c.out, nil }
		res, err := Run(context.Background(), fixed, Uniform(16), 1, 20, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 20 || res.OK != 0 || res.NotFound+res.Unreachable != 20 {
			t.Fatalf("outcome %d: %+v, want 20 ops all answered %d", c.out, res, c.out)
		}
		if res.SuccessRate != c.want {
			t.Fatalf("outcome %d: success rate = %v, want %v", c.out, res.SuccessRate, c.want)
		}
	}
}

// TestRunSystem drives every attack workload closed-loop against an
// in-process System and checks the accounting adds up. Mint work is turned
// down so the join-flood mints stay smoke-scale solves.
func TestRunSystem(t *testing.T) {
	sys, err := tinygroups.New(128, tinygroups.WithSeed(1), tinygroups.WithMintWork(1<<8))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, g := range AttackSuite(64, 50) {
		res, err := Run(context.Background(), SystemDo(sys), g, 1, 300, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 300 {
			t.Fatalf("%s: ops = %d, want 300", g.Name(), res.Ops)
		}
		if sum := res.OK + res.Unreachable + res.NotFound + res.Errors; sum != res.Ops {
			t.Fatalf("%s: outcome sum %d != ops %d (%+v)", g.Name(), sum, res.Ops, res)
		}
		if res.Errors != 0 || res.OK == 0 {
			t.Fatalf("%s: %+v, want no errors and some successes at β=0.05", g.Name(), res)
		}
	}
}

// TestRunCancellation checks a cancelled context stops the closed loop
// early and surfaces ctx.Err.
func TestRunCancellation(t *testing.T) {
	sys, err := tinygroups.New(128, tinygroups.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, SystemDo(sys), Uniform(64), 1, 1000, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Ops >= 1000 {
		t.Fatalf("ops = %d, want early stop", res.Ops)
	}
}

// ExampleGenerator shows the determinism contract: a workload's op stream
// is a pure function of (seed, index), so any client — at any concurrency
// — regenerates exactly these operations.
func ExampleGenerator() {
	gen := JoinFlood(64, 4, 1)
	for i := 0; i < 4; i++ {
		op := gen.Op(1, i)
		if op.Key == "" {
			fmt.Println(i, op.Kind)
			continue
		}
		fmt.Println(i, op.Kind, op.Key)
	}
	// Output:
	// 0 lookup k00000029
	// 1 lookup k00000022
	// 2 mint advf1f9f2aea6b0ca9d
	// 3 advance
}
