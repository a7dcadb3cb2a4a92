package tinygroups_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/tinygroups"
)

// ExampleNew builds a small deterministic system, exercises the keyed
// store, and releases it.
func ExampleNew() {
	sys, err := tinygroups.New(256,
		tinygroups.WithBeta(0.05),
		tinygroups.WithOverlay("chord"),
		tinygroups.WithSeed(1),
	)
	if err != nil {
		fmt.Println("config rejected:", errors.Is(err, tinygroups.ErrBadConfig))
		return
	}
	defer sys.Close()
	fmt.Println("n:", sys.N())
	fmt.Println("epoch:", sys.Epoch())

	// Invalid configurations fail with the typed ErrBadConfig.
	_, err = tinygroups.New(4)
	fmt.Println("n=4 rejected:", errors.Is(err, tinygroups.ErrBadConfig))
	// Output:
	// n: 256
	// epoch: 0
	// n=4 rejected: true
}

// ExampleSystem_LookupBatch routes a batch of keys concurrently across
// the system's readers; per-key outcomes come back in key order, and the
// results are identical at every worker count.
func ExampleSystem_LookupBatch() {
	sys, err := tinygroups.New(256, tinygroups.WithSeed(1))
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	keys := []string{"alice", "bob", "carol", "dave"}
	results, err := sys.LookupBatch(context.Background(), keys)
	if err != nil {
		panic(err) // only ErrClosed or context cancellation
	}
	fmt.Println("results:", len(results))
	for i, r := range results {
		// A per-key ErrUnreachable is the ε-fraction Theorem 3 concedes.
		if r.Err != nil && !errors.Is(r.Err, tinygroups.ErrUnreachable) {
			fmt.Println(keys[i], "failed:", r.Err)
		}
	}
	// Output:
	// results: 4
}

// ExampleSystem_Compute runs jobs on the groups responsible for them: each
// group executes phase-king Byzantine agreement on the job's input bit, so
// a good group computes like one reliable processor.
func ExampleSystem_Compute() {
	sys, err := tinygroups.New(256, tinygroups.WithSeed(7))
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	ctx := context.Background()
	correct, other := 0, 0
	for i := 0; i < 20; i++ {
		res, err := sys.Compute(ctx, fmt.Sprintf("job-%02d", i), i%2)
		switch {
		case err == nil && res.Correct:
			correct++
		case err == nil || errors.Is(err, tinygroups.ErrUnreachable):
			other++ // a bad group, or the ε of routes Theorem 3 concedes
		default:
			panic(err)
		}
	}
	fmt.Println("jobs:", correct+other)
	fmt.Println("most computed correctly:", correct >= 18)
	// Output:
	// jobs: 20
	// most computed correctly: true
}

// searchCounter is an Observer that counts events with atomics, since
// concurrent readers report searches concurrently.
type searchCounter struct {
	searches, epochs, minted atomic.Int64
}

func (c *searchCounter) ObserveSearch(tinygroups.SearchEvent) { c.searches.Add(1) }
func (c *searchCounter) ObserveEpoch(tinygroups.EpochEvent)   { c.epochs.Add(1) }
func (c *searchCounter) ObserveMint(e tinygroups.MintEvent)   { c.minted.Add(int64(e.Minted)) }

// ExampleWithObserver streams telemetry to an Observer: one search event
// per routed key, and one epoch and one mint event per AdvanceEpoch.
func ExampleWithObserver() {
	obs := &searchCounter{}
	sys, err := tinygroups.New(256, tinygroups.WithSeed(1), tinygroups.WithObserver(obs))
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	ctx := context.Background()
	for _, key := range []string{"alice", "bob", "carol"} {
		sys.Lookup(ctx, key) // an ErrUnreachable still reports its search
	}
	if _, err := sys.AdvanceEpoch(ctx); err != nil {
		panic(err)
	}
	fmt.Println("searches:", obs.searches.Load())
	fmt.Println("epochs:", obs.epochs.Load())
	fmt.Println("re-minted IDs:", obs.minted.Load())
	// Output:
	// searches: 3
	// epochs: 1
	// re-minted IDs: 256
}

// ExampleSystem_AdvanceEpoch turns the whole population over through the
// two-graph construction; stored values re-home to their new owners, and
// the returned Stats carry Theorem 3's measurements for the new graphs.
func ExampleSystem_AdvanceEpoch() {
	sys, err := tinygroups.New(1024, tinygroups.WithSeed(1))
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	ctx := context.Background()
	st, err := sys.AdvanceEpoch(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("epoch:", st.Epoch, "n:", st.N)
	fmt.Println("red fraction ≤ 0.05:", st.RedFraction[0] <= 0.05 && st.RedFraction[1] <= 0.05)
	fmt.Println("search failures ≤ 0.05:", st.SearchFailRate <= 0.05)
	// Output:
	// epoch: 1 n: 1024
	// red fraction ≤ 0.05: true
	// search failures ≤ 0.05: true
}
