package experiments

import (
	"context"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/epoch"
)

// e4Dynamic regenerates the Theorem 3 dynamic series: per-epoch red
// fractions and search failure under full population turnover. Epochs are
// causally chained (each construction runs through the previous epoch's
// graphs), so the chain runs inline — one logical trial whose rows stream
// out as each epoch completes, with a cancellation poll between epochs.
// The trial seed derivation matches the engine.Map scheme exactly, so the
// table is byte-identical to the former batch form.
func e4Dynamic(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 10
	epochs := 8
	if o.Quick {
		n = 512
		epochs = 4
	}
	rng := rand.New(rand.NewSource(engine.TrialSeed(o.Seed, "e4", 0)))
	cfg := epoch.DefaultConfig(n)
	cfg.Params.Beta = 0.05
	cfg.Seed = rng.Int63()
	s, err := epoch.New(cfg)
	if err != nil {
		panic(err)
	}
	em.Header("epoch", "qfSingle", "qfDual", "redFrac1", "redFrac2", "searchFail")
	for e := 0; e < epochs; e++ {
		st, err := s.RunEpochContext(ctx)
		if err != nil {
			return err
		}
		em.Row(itoa(st.Epoch), f4(st.QfSingle), f4(st.QfDual),
			f4(st.RedFraction[0]), f4(st.RedFraction[1]), f4(st.SearchFailRate))
	}
	em.Note("Expected shape: qfDual ≈ qfSingle², and redFrac/searchFail stay flat across epochs (no drift).")
	return nil
}

// e5Ablation regenerates the §III two-graph-necessity comparison: the same
// run with one group graph accumulates error; with two it does not. The
// arms run sequentially so each arm's rows stream out epoch by epoch;
// their randomness is arm-indexed by construction (not draw order), so the
// table matches the former parallel-arm batch form byte for byte.
func e5Ablation(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 10
	epochs := 8
	if o.Quick {
		n = 512
		epochs = 5
	}
	// Both arms share one seed so the comparison is paired: the only
	// difference between the row series is TwoGraphs.
	sharedSeed := engine.TrialSeed(o.Seed, "e5/shared", 0)
	em.Header("graphs", "epoch", "qfEff", "redFrac", "searchFail")
	for _, twoGraphs := range []bool{true, false} {
		cfg := epoch.DefaultConfig(n)
		cfg.Params.Beta = 0.05
		cfg.TwoGraphs = twoGraphs
		cfg.Seed = sharedSeed
		s, err := epoch.New(cfg)
		if err != nil {
			panic(err)
		}
		label := "2"
		if !twoGraphs {
			label = "1"
		}
		for e := 0; e < epochs; e++ {
			st, err := s.RunEpochContext(ctx)
			if err != nil {
				return err
			}
			qfEff := st.QfDual // the corruption probability per construction step
			em.Row(label, itoa(st.Epoch), f4(qfEff), f4(st.RedFraction[0]), f4(st.SearchFailRate))
		}
	}
	em.Note("Expected shape: with 1 graph the per-step corruption qfEff equals qf and compounds — redFrac and")
	em.Note("searchFail drift upward epoch over epoch; with 2 graphs qfEff ≈ qf² and the series stays flat.")
	return nil
}

// e10Cuckoo regenerates the related-work anchor: the cuckoo rule's group
// size requirement ([47]: |G| ≈ 64 at n = 8192) vs this paper's tiny
// groups. Every cuckoo (|G|, β) cell and the tiny-groups arm are
// independent engine trials.
func e10Cuckoo(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 13
	events := 100000
	if o.Quick {
		n = 1 << 10
		events = 10000
	}
	type cell struct {
		g    int
		beta float64
	}
	var cells []cell
	for _, g := range []int{8, 16, 32, 64} {
		for _, beta := range []float64{0.002, 0.02} {
			cells = append(cells, cell{g, beta})
		}
	}
	// One batch holds every cuckoo cell plus the tiny-groups arm (the last
	// trial). The epoch simulation is the most expensive trial, so it
	// overlaps the cuckoo cells instead of waiting for them behind a
	// barrier.
	rows := engine.Map(o.cfg(), "e10", len(cells)+1, func(ci int, rng *rand.Rand) []string {
		if ci < len(cells) {
			c := cells[ci]
			res := baseline.RunCuckoo(baseline.CuckooConfig{
				N: n, Beta: c.beta, K: 4, GroupSize: c.g,
				Events: events, Targeted: true, Seed: rng.Int63(),
			})
			return []string{"cuckoo", itoa(n), itoa(c.g), f3(c.beta), itoa(res.SurvivedEvents),
				boolStr(res.Survived), f3(res.MaxBadFraction)}
		}
		// Our construction at the same scale: per-epoch full turnover is n
		// join/leave events; run 3 epochs (= 3n events) and report failure.
		ecfg := epoch.DefaultConfig(min(n, 2048)) // epoch sim cost cap
		ecfg.Params.Beta = 0.05
		ecfg.Seed = rng.Int63()
		s, err := epoch.New(ecfg)
		if err != nil {
			panic(err)
		}
		var worst float64
		epochs := 3
		for e := 0; e < epochs; e++ {
			st := s.RunEpoch()
			if st.RedFraction[0] > worst {
				worst = st.RedFraction[0]
			}
		}
		return []string{"tinygroups+pow", itoa(ecfg.N), itoa(s.Generation().Graphs[0].GroupSize()), f3(0.05),
			itoa(epochs * ecfg.N), "true", f3(worst)}
	})
	em.Header("scheme", "n", "|G|", "beta", "events", "survived", "maxBadFrac")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: cuckoo needs |G| ≈ 64 to survive at tiny β and dies quickly with small groups at")
	em.Note("moderate β; the PoW construction sustains |G| = Θ(log log n) at β = 0.05 (red fraction stays tiny).")
	return nil
}

// e12State regenerates the Lemma 10 state-bound table: spam accepted and
// membership state with verification on vs off — two independent trials.
func e12State(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 512
	if o.Quick {
		n = 256
	}
	arms := []bool{true, false}
	rows := engine.Map(o.cfg(), "e12", len(arms), func(ai int, rng *rand.Rand) []string {
		verify := arms[ai]
		cfg := epoch.DefaultConfig(n)
		cfg.Params.Beta = 0.10
		cfg.VerifyRequests = verify
		cfg.SpamFactor = 5
		cfg.Seed = rng.Int63()
		s, err := epoch.New(cfg)
		if err != nil {
			panic(err)
		}
		st := s.RunEpoch()
		nBad := int(cfg.Params.Beta * float64(n))
		return []string{boolStr(verify), itoa(cfg.SpamFactor), itoa(nBad * cfg.SpamFactor),
			itoa(st.SpamAccepted), f1(st.MeanMemberships), itoa(st.ErroneousRejects)}
	})
	em.Header("verify", "spam/bad", "spamSent", "spamAccepted", "memberships", "errRejects")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: with verification, spamAccepted ≈ qf²·spamSent ≈ 0 and memberships stay")
	em.Note("O(log log n); without it every bogus request lands.")
	return nil
}
