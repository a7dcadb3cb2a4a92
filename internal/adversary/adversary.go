// Package adversary models the paper's Byzantine adversary (§I-C): a single
// coordinating entity controlling a β-fraction of the system's
// computational power. PoW (Lemma 11) constrains it to hold at most ≈βn
// IDs whose values are u.a.r. in [0,1); its remaining freedom is *which
// subset* of its u.a.r. IDs to inject (Lemma 5) and how its IDs behave.
//
// This package provides the ID-placement strategies. Behavioral attacks
// (search redirection, request spam, delayed string release,
// pre-computation) live with the protocols they attack, in
// internal/groups, internal/epoch and internal/pow.
package adversary

import (
	"math/rand"
	"sort"

	"repro/internal/ring"
)

// Placement is a concrete assignment of good and bad IDs on the ring.
type Placement struct {
	Good []ring.Point
	Bad  []ring.Point
}

// Ring returns a ring holding all IDs of the placement.
func (p Placement) Ring() *ring.Ring {
	all := make([]ring.Point, 0, len(p.Good)+len(p.Bad))
	all = append(all, p.Good...)
	all = append(all, p.Bad...)
	return ring.New(all)
}

// BadSet returns the bad IDs as a set.
func (p Placement) BadSet() map[ring.Point]bool {
	m := make(map[ring.Point]bool, len(p.Bad))
	for _, b := range p.Bad {
		m[b] = true
	}
	return m
}

// N returns the total number of IDs.
func (p Placement) N() int { return len(p.Good) + len(p.Bad) }

// Strategy selects how the adversary picks which of its u.a.r. IDs to
// inject (it cannot choose the values themselves — PoW forces uniformity).
type Strategy int

const (
	// Uniform injects all its u.a.r. IDs (the baseline attack).
	Uniform Strategy = iota
	// Clustered injects only IDs landing in a contiguous arc, concentrating
	// its presence there (the §III-B example: "maybe only bad IDs in
	// [0, ½) are added").
	Clustered
	// nearKey injects the IDs closest to a victim key, attacking the
	// groups responsible for one resource.
	nearKey
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Clustered:
		return "clustered"
	case nearKey:
		return "nearkey"
	}
	return "unknown"
}

// Config parameterizes placement generation.
type Config struct {
	N        int        // total IDs in the system
	Beta     float64    // adversary fraction: ⌊βN⌋ bad IDs are injected
	Strategy Strategy   //
	Span     float64    // Clustered: arc [0, Span) that bad IDs must land in
	Key      ring.Point // nearKey: the victim key
	// PoolFactor scales the u.a.r. pool the adversary selects its subset
	// from; the paper's model lets it discard IDs it mined but dislikes.
	// Defaults to 4 when zero (only relevant to Clustered/nearKey).
	PoolFactor int
}

// Place draws a placement: (1−β)N u.a.r. good IDs and ⌊βN⌋ bad IDs chosen
// per the strategy from a u.a.r. pool.
func Place(cfg Config, rng *rand.Rand) Placement {
	nBad := int(cfg.Beta * float64(cfg.N))
	nGood := cfg.N - nBad
	p := Placement{Good: make([]ring.Point, nGood)}
	for i := range p.Good {
		p.Good[i] = ring.Point(rng.Uint64())
	}
	pf := cfg.PoolFactor
	if pf <= 0 {
		pf = 4
	}
	switch cfg.Strategy {
	case Uniform:
		p.Bad = drawUniform(nBad, rng)
	case Clustered:
		span := cfg.Span
		if span <= 0 || span > 1 {
			span = 0.5
		}
		limit := ring.FromFloat(span)
		pool := drawUniform(pf*nBad, rng)
		for _, b := range pool {
			if b < limit && len(p.Bad) < nBad {
				p.Bad = append(p.Bad, b)
			}
		}
		// If the arc was too small to supply nBad IDs from the pool, the
		// adversary simply fields fewer IDs — strictly weaker, never
		// stronger, and faithful to the subset rule.
	case nearKey:
		pool := drawUniform(pf*nBad, rng)
		sort.Slice(pool, func(i, j int) bool {
			return cfg.Key.Dist(pool[i]) < cfg.Key.Dist(pool[j])
		})
		if len(pool) > nBad {
			pool = pool[:nBad]
		}
		p.Bad = pool
	}
	return p
}

func drawUniform(n int, rng *rand.Rand) []ring.Point {
	out := make([]ring.Point, n)
	for i := range out {
		out[i] = ring.Point(rng.Uint64())
	}
	return out
}
