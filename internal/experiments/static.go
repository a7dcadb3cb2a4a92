package experiments

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
)

// staticGraph builds the standard static experiment object: u.a.r.
// placement at the given β over a Chord overlay, tiny groups per defaults.
func staticGraph(n int, beta float64, rng *rand.Rand) *groups.Graph {
	pl := adversary.Place(adversary.Config{N: n, Beta: beta, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = beta
	return groups.Build(ov, pl.BadSet(), params, hashes.H1)
}

// e1StaticSearch regenerates the Lemma 4 / Theorem 3 static series: search
// failure rate vs n at tiny group sizes, against the 1/log² n reference
// shape. Each (n, β) cell is an independent engine trial.
func e1StaticSearch(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ns := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	searches := 4000
	if o.Quick {
		ns = []int{1 << 10, 1 << 12}
		searches = 1000
	}
	betas := []float64{0.05, 0.10}
	type cell struct {
		n    int
		beta float64
	}
	var cells []cell
	for _, n := range ns {
		for _, beta := range betas {
			cells = append(cells, cell{n, beta})
		}
	}
	rows := meanCells(o, "e1", len(cells), 3, func(ci, _ int, rng *rand.Rand) []float64 {
		c := cells[ci]
		g := staticGraph(c.n, c.beta, rng)
		rob := g.MeasureRobustness(searches, rng)
		return []float64{float64(g.GroupSize()), rob.RedFraction, rob.SearchFailRate}
	})
	em.Header("n", "beta", "|G|", "redFrac", "searchFail", "1/ln^2(n)")
	for ci, c := range cells {
		ref := 1 / math.Pow(math.Log(float64(c.n)), 2)
		em.Row(itoa(c.n), f3(c.beta), itoa(int(math.Round(rows[ci][0]))), f4(rows[ci][1]),
			f4(rows[ci][2]), f4(ref))
	}
	em.Note("Expected shape: searchFail stays O(polylog⁻¹), decreasing or flat in n while |G| grows only with ln ln n.")
	em.Note("Paper claims success prob 1−O(1/log^{k−c} n) (Lemma 4).")
	return nil
}

// e2BadGroups regenerates the S2 probability table: fraction of bad groups
// vs the group-size multiplier d over ln ln n.
func e2BadGroups(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 14
	if o.Quick {
		n = 1 << 12
	}
	betas := []float64{0.05, 0.10, 0.15}
	mults := []float64{1, 2, 3, 4, 6}
	type cell struct {
		beta, mult float64
		size       int
	}
	lnln := math.Log(math.Log(float64(n)))
	var cells []cell
	for _, beta := range betas {
		for _, d := range mults {
			size := int(math.Round(d * lnln))
			if size < 2 {
				size = 2
			}
			cells = append(cells, cell{beta, d, size})
		}
	}
	rows := meanCells(o, "e2", len(cells), 1, func(ci, _ int, rng *rand.Rand) []float64 {
		c := cells[ci]
		pl := adversary.Place(adversary.Config{N: n, Beta: c.beta, Strategy: adversary.Uniform}, rng)
		ov := overlay.NewChord(pl.Ring())
		params := groups.DefaultParams()
		params.Beta = c.beta
		g := groups.BuildSized(ov, pl.BadSet(), params, hashes.H1, c.size)
		return []float64{g.BadFraction()}
	})
	em.Header("n", "beta", "mult", "|G|", "badFrac")
	for ci, c := range cells {
		em.Row(itoa(n), f3(c.beta), f1(c.mult), itoa(c.size), f4(rows[ci][0]))
	}
	em.Note("Expected shape: badFrac drops exponentially in |G| (Chernoff), reaching 1/polylog n by d ≈ 2–3.")
	return nil
}

// e3Costs regenerates the Corollary 1 cost table: tiny groups vs the
// Θ(log n) baseline on two input-graph degree classes. Each (n, overlay)
// pair is one engine trial producing both scheme rows.
func e3Costs(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	if o.Quick {
		ns = []int{1 << 12}
	}
	const beta = 0.05
	type cell struct {
		n       int
		builder int // index into overlay.Builders()
	}
	builders := overlay.Builders()
	var cells []cell
	for _, n := range ns {
		for bi, b := range builders {
			if b.Name == "viceroy" {
				continue // corollary needs one log-degree + one const-degree class
			}
			cells = append(cells, cell{n, bi})
		}
	}
	rows := engine.Map(o.cfg(), "e3", len(cells), func(ci int, rng *rand.Rand) [][]string {
		c := cells[ci]
		b := builders[c.builder]
		pl := adversary.Place(adversary.Config{N: c.n, Beta: beta, Strategy: adversary.Uniform}, rng)
		bad := pl.BadSet()
		params := groups.DefaultParams()
		params.Beta = beta
		ov := b.Build(pl.Ring(), rng.Int63())
		var out [][]string
		for _, scheme := range []string{"tiny", "log"} {
			var g *groups.Graph
			if scheme == "tiny" {
				g = groups.Build(ov, bad, params, hashes.H1)
			} else {
				g = baseline.BuildLogGroups(ov, bad, params, 2)
			}
			rob := g.MeasureRobustness(600, rng)
			costs := g.MeasureCosts(256, rng)
			out = append(out, []string{itoa(c.n), b.Name, scheme, itoa(g.GroupSize()),
				i64toa(costs.GroupCommMsgs), f1(rob.MeanMessages), f1(costs.MeanStatePerID)})
		}
		return out
	})
	em.Header("n", "overlay", "scheme", "|G|", "groupComm", "msgs/search", "state/ID")
	for _, trialRows := range rows {
		for _, r := range trialRows {
			em.Row(r...)
		}
	}
	em.Note("Expected shape: tiny wins every cost column by ≈(ln n / ln ln n)² ≈ 10–20×, growing with n.")
	em.Note("groupComm = |G|²; msgs/search = D·|G|² (secure routing); state = memberships + neighbor links.")
	return nil
}

// e8Knee regenerates the §I-D "can we do better?" series: search success
// vs group-size multiplier, exhibiting the knee at |G| ≈ ln ln n.
func e8Knee(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 1 << 14
	searches := 3000
	if o.Quick {
		n = 1 << 12
		searches = 800
	}
	const beta = 0.10
	mults := []float64{0.5, 0.75, 1, 1.5, 2, 3, 4}
	lnln := math.Log(math.Log(float64(n)))
	sizes := make([]int, len(mults))
	for i, d := range mults {
		size := int(math.Round(d * lnln))
		if size < 1 {
			size = 1
		}
		sizes[i] = size
	}
	rows := meanCells(o, "e8", len(mults), 2, func(ci, _ int, rng *rand.Rand) []float64 {
		pl := adversary.Place(adversary.Config{N: n, Beta: beta, Strategy: adversary.Uniform}, rng)
		ov := overlay.NewChord(pl.Ring())
		params := groups.DefaultParams()
		params.Beta = beta
		g := groups.BuildSized(ov, pl.BadSet(), params, hashes.H1, sizes[ci])
		rob := g.MeasureRobustness(searches, rng)
		return []float64{g.BadFraction(), rob.SearchFailRate}
	})
	em.Header("n", "mult", "|G|", "badFrac", "searchFail")
	for ci, d := range mults {
		em.Row(itoa(n), f3(d), itoa(sizes[ci]), f4(rows[ci][0]), f4(rows[ci][1]))
	}
	em.Note("Expected shape: below ≈1·ln ln n, searchFail explodes toward 1 (union bound fails);")
	em.Note("at 2–3·ln ln n it is already 1/polylog — the paper's 'pushing the limits' point.")
	return nil
}

// e9InputGraphs regenerates the P1–P4 verification table for all three
// constructions, including the Lemma 5 adversarial-subset variant. Each
// (n, mode) pair is one engine trial measuring all three overlays (rows
// are emitted in trial order once the fan-out completes).
func e9InputGraphs(ctx context.Context, o Options, em Emitter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ns := []int{1 << 10, 1 << 12}
	samples := 2000
	if o.Quick {
		ns = []int{1 << 10}
		samples = 600
	}
	type cell struct {
		n    int
		mode string
	}
	var cells []cell
	for _, n := range ns {
		for _, mode := range []string{"uniform", "lemma5"} {
			cells = append(cells, cell{n, mode})
		}
	}
	em.Header("n", "overlay", "ids", "hops/log2n", "maxLoad", "cong*n", "meanDeg")
	engine.MapReduce(o.cfg(), "e9", len(cells), em,
		func(ci int, rng *rand.Rand) [][]string {
			c := cells[ci]
			r := overlay.UniformRing(c.n, rng)
			if c.mode == "lemma5" {
				pl := adversary.Place(adversary.Config{
					N: c.n, Beta: 0.25, Strategy: adversary.Clustered, Span: 0.5,
				}, rng)
				r = pl.Ring()
			}
			var out [][]string
			for _, b := range overlay.Builders() {
				g := b.Build(r, rng.Int63())
				p := overlay.Measure(g, samples, rng)
				logn := math.Log2(float64(r.Len()))
				out = append(out, []string{itoa(c.n), b.Name, c.mode, f3(p.MeanHops / logn),
					f3(p.MaxLoad), f1(p.CongestionXN), f1(p.MeanDegree)})
			}
			return out
		},
		func(em Emitter, _ int, trialRows [][]string) Emitter {
			for _, r := range trialRows {
				em.Row(r...)
			}
			return em
		})
	em.Note("Expected shape: hops/log2n ≈ O(1); maxLoad = O(ln n); cong·n = O(log^c n);")
	em.Note("chord degree Θ(log n), debruijn/viceroy O(1); all preserved under the Lemma 5 adversarial subset.")
	return nil
}
