// Package groups implements the paper's group graph G (§II): for every ID w
// in the input graph H there is a group G_w of Θ(log log n) IDs led by w.
// Groups are blue (good with correct neighbor sets) or red (bad or
// confused); searches proceed along overlay routes lifted to groups, with
// all-to-all exchange between consecutive groups, and a search fails
// exactly when its search path traverses a red group.
package groups

import (
	"fmt"
	"math"

	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

// Params fixes the group-size and classification constants of §I-C.
type Params struct {
	// D1, D2 bound the group size: d1·ln ln n ≤ |G| ≤ d2·ln ln n. Groups
	// are built with d2·ln ln n solicitations; a group that ends up below
	// d1·ln ln n members is bad by definition (i).
	D1, D2 float64
	// MinSize clamps the group size from below so small-n simulations stay
	// meaningful (ln ln n < 3 for n < 10⁹).
	MinSize int
	// Beta is the adversary's ID fraction; Delta the slack of definition
	// (ii): a group is bad when its bad members exceed (1+Delta)·Beta·|G|.
	Beta, Delta float64
	// MajorityRule switches classification to the operational secure-routing
	// criterion: bad iff bad members ≥ half (majority filtering broken).
	// Definition (ii) with tiny groups only bites at astronomically large
	// n; the majority rule is what search correctness actually needs, so
	// experiments default to it. Set false for the strict paper definition.
	MajorityRule bool
}

// DefaultParams returns the values of the §I-C constants that every
// experiment starts from.
func DefaultParams() Params {
	return Params{D1: 2, D2: 3, MinSize: 6, Beta: 0.10, Delta: 0.25, MajorityRule: true}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.D1 <= 0 || p.D2 < p.D1 {
		return fmt.Errorf("groups: need 0 < D1 ≤ D2, got D1=%v D2=%v", p.D1, p.D2)
	}
	if p.Beta < 0 || p.Beta >= 0.5 {
		return fmt.Errorf("groups: need 0 ≤ Beta < 1/2, got %v", p.Beta)
	}
	if (1+p.Delta)*p.Beta >= 0.5 {
		return fmt.Errorf("groups: (1+Delta)·Beta = %v must stay below 1/2 for a good majority", (1+p.Delta)*p.Beta)
	}
	return nil
}

// SizeFor returns the target group size d2·ln ln n (clamped to MinSize).
func (p Params) SizeFor(n int) int {
	if n < 3 {
		n = 3
	}
	s := int(math.Round(p.D2 * math.Log(math.Log(float64(n)))))
	if s < p.MinSize {
		s = p.MinSize
	}
	return s
}

// MinSizeFor returns the lower size bound d1·ln ln n (clamped proportionally).
func (p Params) MinSizeFor(n int) int {
	if n < 3 {
		n = 3
	}
	s := int(math.Round(p.D1 * math.Log(math.Log(float64(n)))))
	min := int(float64(p.MinSize) * p.D1 / p.D2)
	if s < min {
		s = min
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Member is one ID inside a group.
type Member struct {
	ID  ring.Point
	Bad bool
}

// Group is G_w: the leader w plus its solicited members.
type Group struct {
	Leader   ring.Point
	Members  []Member
	Bad      bool // definition (i) or (ii) violated (or majority rule)
	Confused bool // neighbor set incorrectly established (§III-B)
}

// Red reports whether the group is red: bad or confused (§II terminology).
func (g *Group) Red() bool { return g.Bad || g.Confused }

// Size returns the number of members.
func (g *Group) Size() int { return len(g.Members) }

// BadCount returns the number of Byzantine members.
func (g *Group) BadCount() int {
	c := 0
	for _, m := range g.Members {
		if m.Bad {
			c++
		}
	}
	return c
}

// Graph is the group graph G over an input graph H.
type Graph struct {
	ov     overlay.Graph
	params Params
	// byRank holds the groups by value, indexed by their leader's rank on
	// the ring — leaders are exactly the ring's points, and routes arrive
	// as ranks, so a search hop reads its group's size and color straight
	// from one array, with no pointer to chase.
	byRank []Group
	size   int // target group size used at build time
}

// Build constructs the group graph over ov. The i-th member of G_w is
// suc(h(w,i)) for i = 1..d2·ln ln n (§III-A's membership rule, applied
// statically). badIDs marks the adversary's IDs; classification follows
// params. In the static case neighbor sets of good groups are correct by
// construction, so no group starts confused.
func Build(ov overlay.Graph, badIDs map[ring.Point]bool, params Params, h hashes.Func) *Graph {
	return BuildSized(ov, badIDs, params, h, params.SizeFor(ov.Ring().Len()))
}

// BuildSized is Build with an explicit group size — used by the Θ(log n)
// baseline construction and by group-size sweeps (experiment E8).
//
// Every member point is batch-hashed (hashes.PointsAt) and resolved to a
// ring rank (ring.SuccessorIndex); groups live in one array and member
// lists are carved out of one shared arena, so a build makes O(1)
// allocations instead of one per group.
func BuildSized(ov overlay.Graph, badIDs map[ring.Point]bool, params Params, h hashes.Func, size int) *Graph {
	r := ov.Ring()
	n := r.Len()
	g := &Graph{ov: ov, params: params, byRank: make([]Group, n), size: size}
	if n == 0 {
		return g
	}
	pts := r.Points()
	badRank := make([]bool, n)
	for id := range badIDs {
		if i, ok := r.Index(id); ok {
			badRank[i] = true
		}
	}
	memberArena := make([]Member, n*size)
	ptBuf := make([]ring.Point, size)
	for wi, w := range pts {
		ms := memberArena[wi*size : (wi+1)*size : (wi+1)*size]
		for i, p := range h.PointsAt(w, size, ptBuf) {
			mi := r.SuccessorIndex(p)
			ms[i] = Member{ID: pts[mi], Bad: badRank[mi]}
		}
		grp := &g.byRank[wi]
		grp.Leader = w
		grp.Members = ms
		g.classify(grp)
	}
	return g
}

// classify applies the bad-group criterion of params to grp. The size
// floor is d1/d2 of the solicited size (the paper solicits d2·ln ln n
// members and requires at least d1·ln ln n, definition (i)); expressing it
// relative to the built size keeps size sweeps (E8) meaningful.
func (g *Graph) classify(grp *Group) {
	sz := grp.Size()
	bad := grp.BadCount()
	floor := int(math.Ceil(float64(g.size) * g.params.D1 / g.params.D2))
	if floor < 1 {
		floor = 1
	}
	if sz < floor {
		grp.Bad = true
		return
	}
	if g.params.MajorityRule {
		grp.Bad = 2*bad >= sz
	} else {
		grp.Bad = float64(bad) > (1+g.params.Delta)*g.params.Beta*float64(sz)
	}
}

// Overlay returns the underlying input graph.
func (g *Graph) Overlay() overlay.Graph { return g.ov }

// GroupSize returns the target group size used at build time.
func (g *Graph) GroupSize() int { return g.size }

// Group returns G_w, or nil if w leads no group.
func (g *Graph) Group(w ring.Point) *Group {
	if i, ok := g.ov.Ring().Index(w); ok {
		return &g.byRank[i]
	}
	return nil
}

// GroupAt returns the group led by the ring's i-th point — the search hot
// path's lookup, since routes arrive as ranks.
func (g *Graph) GroupAt(i int) *Group { return &g.byRank[i] }

// Groups iterates over all groups in ring order of their leaders.
func (g *Graph) Groups() []*Group {
	out := make([]*Group, len(g.byRank))
	for i := range g.byRank {
		out[i] = &g.byRank[i]
	}
	return out
}

// N returns the number of groups.
func (g *Graph) N() int { return len(g.byRank) }

// RedFraction returns the fraction of red groups — the empirical p_f of S2.
func (g *Graph) RedFraction() float64 {
	red := 0
	for i := range g.byRank {
		if g.byRank[i].Red() {
			red++
		}
	}
	return float64(red) / float64(len(g.byRank))
}

// BadFraction returns the fraction of bad (not merely confused) groups.
func (g *Graph) BadFraction() float64 {
	bad := 0
	for i := range g.byRank {
		if g.byRank[i].Bad {
			bad++
		}
	}
	return float64(bad) / float64(len(g.byRank))
}
