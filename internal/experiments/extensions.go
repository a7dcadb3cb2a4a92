package experiments

import (
	"context"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/pow"
	"repro/internal/ring"
	"repro/internal/secroute"
)

// e14SecureRouting regenerates the §I secure-routing mechanism check: the
// protocol-level all-to-all + majority-filter transmission agrees with the
// graph-level blue-path criterion, and good groups with bad minorities
// deliver intact. Each (n, β) cell is an engine trial.
func e14SecureRouting(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ns := []int{512, 2048}
	trials := 1500
	if o.Quick {
		ns = []int{512}
		trials = 400
	}
	type cell struct {
		n    int
		beta float64
	}
	var cells []cell
	for _, n := range ns {
		for _, beta := range []float64{0.05, 0.15} {
			cells = append(cells, cell{n, beta})
		}
	}
	rows := engine.Map(o.cfg(), "e14", len(cells), func(ci int, rng *rand.Rand) []string {
		c := cells[ci]
		pl := adversary.Place(adversary.Config{N: c.n, Beta: c.beta, Strategy: adversary.Uniform}, rng)
		ov := overlay.NewChord(pl.Ring())
		params := groups.DefaultParams()
		params.Beta = c.beta
		g := groups.Build(ov, pl.BadSet(), params, hashes.H1)
		r := ov.Ring()
		delivered, agree, mixedIntact, mixedTotal := 0, 0, 0, 0
		var msgs int64
		for i := 0; i < trials; i++ {
			si := rng.Intn(r.Len())
			key := ring.Point(rng.Uint64())
			proto := secroute.Route(g, r.At(si), key)
			score, _ := g.SearchOutcomeDualTo(nil, si, -1, key, nil)
			if proto.Delivered {
				delivered++
			}
			if proto.Delivered == score.OK {
				agree++
			}
			msgs += proto.Messages
			if proto.Delivered {
				// On delivered routes, every traversed mixed good group
				// must have filtered its bad minority out.
				for _, h := range proto.Hops {
					grp := g.Group(h.Leader)
					if grp.BadCount() > 0 && !grp.Bad {
						mixedTotal++
						if h.Intact {
							mixedIntact++
						}
					}
				}
			}
		}
		mi := 1.0
		if mixedTotal > 0 {
			mi = float64(mixedIntact) / float64(mixedTotal)
		}
		return []string{itoa(c.n), f3(c.beta), f4(float64(delivered) / float64(trials)),
			f4(float64(agree) / float64(trials)), f4(mi), f1(float64(msgs) / float64(trials))}
	})
	em.Header("n", "beta", "delivered", "scoreAgree", "mixedHopsIntact", "msgs/route")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: scoreAgree = 1.0000 (protocol ≡ blue-path criterion); mixedHopsIntact = 1.0000")
	em.Note("on delivered routes (bad minorities filtered out); msgs/route ≈ D·|G|².")
	return nil
}

// e15Departures regenerates the §III churn-bound series: group survival
// under mid-epoch departures, against the ε'/2 guarantee. Each departure
// fraction is an engine trial.
func e15Departures(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 10
	if o.Quick {
		n = 512
	}
	fracs := []float64{0.10, 0.25, 0.40, 0.60, 0.80}
	rows := engine.Map(o.cfg(), "e15", len(fracs), func(fi int, rng *rand.Rand) []string {
		frac := fracs[fi]
		cfg := epoch.DefaultConfig(n)
		cfg.MidEpochDepartures = frac
		cfg.Seed = rng.Int63()
		s, err := epoch.New(cfg)
		if err != nil {
			panic(err)
		}
		st := s.RunEpoch()
		return []string{f3(frac), f3(cfg.Params.GoodDepartureBound()), itoa(st.DepartedMembers),
			itoa(st.MajoritiesLost), f4(st.RedFraction[0]), f4(st.SearchFailRate)}
	})
	em.Header("departFrac", "bound(ε'/2)", "departed", "majLost", "redFrac", "searchFail")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: at departure rates well under the ε'/2 bound no group loses its majority; near")
	em.Note("the bound a few unlucky tiny groups locally exceed ε'/2 of their good members and flip; far above")
	em.Note("it the system collapses. The per-group guarantee itself is property-tested in internal/groups.")
	return nil
}

// e16Bootstrap regenerates the Appendix IX check: pooling
// O(log n / log log n) u.a.r. tiny groups yields a good-majority
// bootstrapping set w.h.p., while trusting a single tiny group fails with
// the bad-group probability. Each β is an engine trial (its pool-size
// sweep shares one constructed system).
func e16Bootstrap(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 12
	trials := 600
	if o.Quick {
		n = 1 << 10
		trials = 200
	}
	betas := []float64{0.10, 0.20}
	rows := engine.Map(o.cfg(), "e16", len(betas), func(bi int, rng *rand.Rand) [][]string {
		beta := betas[bi]
		cfg := epoch.DefaultConfig(n)
		cfg.Params.Beta = beta
		cfg.Seed = rng.Int63()
		s, err := epoch.New(cfg)
		if err != nil {
			panic(err)
		}
		g := s.Generation().Graphs[0]
		var out [][]string
		for _, count := range []int{1, epoch.BootGroupCount(n), 2 * epoch.BootGroupCount(n)} {
			ok := 0
			pool := 0
			for i := 0; i < trials; i++ {
				set := epoch.AssembleBoot(g, count, rng)
				pool = len(set.Members)
				if set.GoodMajority {
					ok++
				}
			}
			out = append(out, []string{itoa(n), f3(beta), itoa(count), itoa(pool), f4(float64(ok) / float64(trials))})
		}
		return out
	})
	em.Header("n", "beta", "groups", "poolSize", "goodMajorityRate")
	for _, trialRows := range rows {
		for _, r := range trialRows {
			em.Row(r...)
		}
	}
	em.Note("Expected shape: a single tiny group gives a good majority only ~1−O(badness) of the time at")
	em.Note("high beta; pooling O(log n / log log n) groups pushes the rate to ≈1 (Chernoff over O(log n) IDs).")
	return nil
}

// e17OverlayAblation regenerates the overlay design-choice ablation:
// route length vs degree across de Bruijn bases and Chord — the
// |G|²-per-hop cost makes D the multiplier tiny groups pay. All five
// constructions share one ring; each build+measure is an engine trial
// (rows are emitted in trial order once the fan-out completes).
func e17OverlayAblation(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 13
	samples := 1500
	if o.Quick {
		n = 1 << 11
		samples = 500
	}
	// One shared ring for every construction (Ring is concurrent-read safe).
	r := overlay.UniformRing(n, rand.New(rand.NewSource(engine.TrialSeed(o.Seed, "e17/ring", 0))))
	type entry struct {
		name string
		mk   func(rng *rand.Rand) overlay.Graph
	}
	entries := []entry{
		{"chord", func(*rand.Rand) overlay.Graph { return overlay.NewChord(r) }},
		{"debruijn-2", func(*rand.Rand) overlay.Graph { return overlay.NewDeBruijn(r, 2) }},
		{"debruijn-4", func(*rand.Rand) overlay.Graph { return overlay.NewDeBruijn(r, 4) }},
		{"debruijn-8", func(*rand.Rand) overlay.Graph { return overlay.NewDeBruijn(r, 8) }},
		{"viceroy", func(rng *rand.Rand) overlay.Graph { return overlay.NewViceroy(r, rng.Int63()) }},
	}
	em.Header("overlay", "meanHops", "meanDeg", "hops*deg", "cong*n")
	engine.MapReduce(o.cfg(), "e17", len(entries), em,
		func(ei int, rng *rand.Rand) []string {
			e := entries[ei]
			p := overlay.Measure(e.mk(rng), samples, rng)
			return []string{e.name, f1(p.MeanHops), f1(p.MeanDegree), f1(p.MeanHops * p.MeanDegree), f1(p.CongestionXN)}
		},
		func(em Emitter, _ int, row []string) Emitter {
			em.Row(row...)
			return em
		})
	em.Note("Expected shape: higher de Bruijn bases trade degree for shorter routes (hops ~ log_d n);")
	em.Note("chord buys short routes with Θ(log n) degree. Secure-routing cost scales with hops·|G|²,")
	em.Note("state with degree — the paper's Corollary 1 applies to any of these H.")
	return nil
}

// e18Quarantine regenerates the footnote-2 extension: groups expelling
// misbehaving members, and the hardening it buys against later departures.
// Each misbehavior probability is an engine trial.
func e18Quarantine(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 10
	if o.Quick {
		n = 512
	}
	const beta = 0.12
	pMiss := []float64{0.0, 0.25, 1.0}
	rows := engine.Map(o.cfg(), "e18", len(pMiss), func(pi int, rng *rand.Rand) []string {
		pMis := pMiss[pi]
		pl := adversary.Place(adversary.Config{N: n, Beta: beta, Strategy: adversary.Uniform}, rng)
		ov := overlay.NewChord(pl.Ring())
		params := groups.DefaultParams()
		params.Beta = beta
		g := groups.Build(ov, pl.BadSet(), params, hashes.H1)
		q := groups.NewQuarantine(g, 2)
		const sweeps = 4
		for i := 0; i < sweeps; i++ {
			q.Sweep(pMis, rng)
		}
		resident := g.ResidentBadInBlue()
		departed := map[ring.Point]bool{}
		for _, id := range pl.Good {
			if rng.Float64() < 0.30 {
				departed[id] = true
			}
		}
		rep := g.RemoveMembers(departed)
		return []string{f3(pMis), itoa(sweeps), itoa(q.Expelled), itoa(resident), itoa(rep.LostMajority)}
	})
	em.Header("pMisbehave", "sweeps", "expelled", "residentBad", "majLost@30%dep")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: active misbehavers (pMis=1) are fully expelled from blue groups, which then")
	em.Note("survive heavy departures better; perfectly stealthy members (pMis=0) persist but do no routing")
	em.Note("damage. Red groups are never redeemed (their bad majority controls the expulsion vote).")
	return nil
}

// e19AdaptivePoW regenerates the conclusion's open question, modeled after
// [22]: puzzle work that tracks attack intensity. Each attack pattern is
// an engine trial.
func e19AdaptivePoW(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 12
	epochs := 24
	if o.Quick {
		n = 1 << 10
		epochs = 12
	}
	const beta = 0.10
	cfg := pow.DefaultAdaptiveConfig()
	patterns := []struct {
		name string
		mk   func(i int) bool
	}{
		{"never", func(int) bool { return false }},
		{"1-in-6", func(i int) bool { return i%6 == 0 }},
		{"1-in-2", func(i int) bool { return i%2 == 0 }},
		{"always", func(int) bool { return true }},
	}
	rows := engine.Map(o.cfg(), "e19", len(patterns), func(pi int, rng *rand.Rand) []string {
		p := patterns[pi]
		attacks := make([]bool, epochs)
		for i := range attacks {
			attacks[i] = p.mk(i)
		}
		res := pow.RunAdaptive(cfg, n, beta, attacks, rng)
		return []string{p.name, f4(res.HonestWorkTotal / res.FlatWorkTotal), f4(res.PeakBadFraction), f3(beta)}
	})
	em.Header("attackPattern", "honest/flatWork", "peakBadFrac", "betaBound")
	for _, r := range rows {
		em.Row(r...)
	}
	em.Note("Expected shape: honest spend scales with the attacked-epoch fraction (≈0 in peace, ≈1 under")
	em.Note("permanent griefing — the paper's constant scheme is the worst case), while admitted bad IDs")
	em.Note("never exceed the Lemma 11 β bound.")
	return nil
}

// e20SizeDrift regenerates the §III Θ(n)-size remark: robustness under a
// population oscillating by a constant factor each epoch. Each drift level
// is an engine trial (its epochs are causally chained inside).
func e20SizeDrift(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 10
	epochs := 6
	if o.Quick {
		n = 512
		epochs = 4
	}
	drifts := []float64{0, 0.25, 0.5}
	rows := engine.Map(o.cfg(), "e20", len(drifts), func(di int, rng *rand.Rand) [][]string {
		drift := drifts[di]
		cfg := epoch.DefaultConfig(n)
		cfg.SizeDrift = drift
		cfg.Seed = rng.Int63()
		s, err := epoch.New(cfg)
		if err != nil {
			panic(err)
		}
		var out [][]string
		for e := 0; e < epochs; e++ {
			st := s.RunEpoch()
			out = append(out, []string{f3(drift), itoa(st.Epoch), itoa(st.N), f4(st.RedFraction[0]), f4(st.SearchFailRate)})
		}
		return out
	})
	em.Header("drift", "epoch", "n", "redFrac", "searchFail")
	for _, trialRows := range rows {
		for _, r := range trialRows {
			em.Row(r...)
		}
	}
	em.Note("Expected shape: oscillating the population by up to ±50% per epoch leaves the red fraction and")
	em.Note("search failure flat — the construction only depends on n through ln ln n and the ε'/2 margin.")
	return nil
}
