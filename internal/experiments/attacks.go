package experiments

import (
	"context"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/workload"
	"repro/tinygroups"
)

// nearZeroVictim picks, from a fixed candidate set, the victim string whose
// hash point lies nearest ring point 0 — the point the NearKey placement
// concentrates the adversary's bad IDs around — so the targeted-churn
// workload and the adversary's ID placement press on the same arc. The scan
// is a pure function, so the chosen victim never changes between runs.
func nearZeroVictim() string {
	best, bestDist := "victim", ^uint64(0)
	for i := 0; i < 1<<10; i++ {
		s := "victim-" + itoa(i)
		p := uint64(tinygroups.KeyPoint(s))
		d := p
		if neg := -p; neg < d {
			d = neg
		}
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// e21AttackSuite pins the adversarial workloads as a table: each of the
// three attack generators runs against a System whose adversary *placement*
// matches the attack — join-flood against the Uniform baseline,
// targeted-churn against NearKey placement on the same victim arc, and the
// eclipse read storm against a Clustered arc that contains the storm's.
// Outcome counts, not latencies, are the columns: the closed loop runs at
// concurrency 1 over the in-process System, so every count is a pure
// function of the seed and the golden tests pin the attack table the same
// way they pin the analytic ones. Each pairing is one engine trial.
func e21AttackSuite(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, ops, advanceEvery := 1<<10, 600, 100
	if o.Quick {
		n, ops, advanceEvery = 512, 160, 40
	}
	const keys = 256
	pairs := []struct {
		gen      workload.Generator
		strategy tinygroups.Strategy
	}{
		{workload.JoinFlood(keys, advanceEvery, 16), tinygroups.Uniform},
		{workload.TargetedChurn(keys, advanceEvery, 8, nearZeroVictim()), tinygroups.NearKey},
		{workload.EclipseStorm(keys, advanceEvery, 8, 0.125), tinygroups.Clustered},
	}
	rows := engine.Map(o.cfg(), "e21", len(pairs), func(pi int, rng *rand.Rand) []string {
		p := pairs[pi]
		sys, err := tinygroups.New(n,
			tinygroups.WithSeed(rng.Int63()),
			tinygroups.WithStrategy(p.strategy),
			tinygroups.WithMintWork(1<<8), // smoke-scale solves for the join-flood mints
		)
		if err != nil {
			panic(err) // validated static options never fail
		}
		defer sys.Close()
		res, _ := workload.Run(ctx, workload.SystemDo(sys), p.gen, rng.Int63(), ops, 1)
		return []string{
			p.gen.Name(), p.strategy.String(), itoa(res.Ops), itoa(res.OK),
			itoa(res.Unreachable), itoa(res.NotFound), itoa(res.Errors),
			itoa(sys.Epoch()), f3(res.SuccessRate),
		}
	})
	// A cancelled ctx leaves partial counts in the trials — surface the
	// cancellation instead of emitting them.
	if err := ctx.Err(); err != nil {
		return err
	}
	em.Header("workload", "strategy", "ops", "ok", "unreach", "notFound", "errors", "epochs", "successRate")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: success rates stay near 1 even though each attack workload is paired with the")
	em.Note("adversary placement it exploits — the Lemma 11 PoW gate prices the join flood, and majority")
	em.Note("filtering holds the targeted and clustered arcs. Counts are seed-pure (concurrency 1).")
	return nil
}
