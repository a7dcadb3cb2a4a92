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
	"math/bits"

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
	hash   hashes.Func
	// byRank indexes groups by their leader's rank on the ring — leaders
	// are exactly the ring's points, so a leader resolves to its group by
	// rank instead of hashing a map[ring.Point]*Group per search hop.
	byRank []*Group
	// pts/idxStart/idxShift form a radix bucket index over the (immutable
	// post-build) leader set: bucket b holds the first rank whose point's
	// top bits reach b. With u.a.r. IDs a lookup costs ~1 probe; see rankOf.
	pts      []ring.Point
	idxStart []int32
	idxShift uint
	// memberOf indexes which groups each ID belongs to (state accounting,
	// Lemma 10).
	memberOf map[ring.Point][]ring.Point
	size     int // target group size used at build time
	// rr is the overlay's rank-route extension, if it has one — the search
	// fast path classifies rank routes without any per-hop rank lookup.
	rr overlay.RankRouter
}

// buildRankIndex precomputes the radix bucket index over the leader points.
func (g *Graph) buildRankIndex() {
	g.rr, _ = g.ov.(overlay.RankRouter)
	pts := g.ov.Ring().Points()
	g.pts = pts
	n := len(pts)
	if n == 0 {
		return
	}
	k := bits.Len(uint(n - 1)) // buckets = 2^k ≥ n, so density ≤ 1
	buckets := 1 << k
	g.idxShift = uint(64 - k)
	start := make([]int32, buckets+1)
	b := 0
	for i, p := range pts {
		pb := int(uint64(p) >> g.idxShift)
		for b <= pb {
			start[b] = int32(i)
			b++
		}
	}
	for ; b <= buckets; b++ {
		start[b] = int32(n)
	}
	g.idxStart = start
}

// rankOf returns the rank of leader p, or ok=false if p leads no group.
// Expected cost is one bucket probe plus ~1 comparison (u.a.r. leaders);
// a clustered bucket falls back to the ring's O(log n) search after a
// bounded scan, so adversarial placements cannot degrade it past that.
func (g *Graph) rankOf(p ring.Point) (int, bool) {
	if g.idxStart == nil {
		return 0, false
	}
	i := int(g.idxStart[uint64(p)>>g.idxShift])
	pts := g.pts
	for scan := 0; scan < 16; scan++ {
		if i >= len(pts) || pts[i] > p {
			return 0, false
		}
		if pts[i] == p {
			return i, true
		}
		i++
	}
	return g.ov.Ring().Index(p)
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
// The construction is a two-pass, arena-backed pipeline: pass 1 batch-hashes
// every member point (hashes.PointsAt) and resolves it to a ring rank
// (ring.SuccessorIndex), counting per-ID memberships; pass 2 carves all
// groups, member lists and membership-index lists out of three shared
// arenas. Group contents are bit-identical to the naive per-member loop —
// only the allocation pattern changes (O(1) allocations instead of one per
// group and per membership-list growth).
func BuildSized(ov overlay.Graph, badIDs map[ring.Point]bool, params Params, h hashes.Func, size int) *Graph {
	r := ov.Ring()
	n := r.Len()
	g := &Graph{
		ov:       ov,
		params:   params,
		hash:     h,
		byRank:   make([]*Group, n),
		memberOf: make(map[ring.Point][]ring.Point, n),
		size:     size,
	}
	if n == 0 {
		return g
	}
	g.buildRankIndex()
	pts := r.Points()

	badRank := make([]bool, n)
	for id := range badIDs {
		if i, ok := r.Index(id); ok {
			badRank[i] = true
		}
	}

	// Pass 1: member ranks and per-ID membership counts.
	total := n * size
	ranks := make([]int32, total)
	counts := make([]int32, n)
	ptBuf := make([]ring.Point, size)
	for wi := range pts {
		h.PointsAt(pts[wi], size, ptBuf)
		row := ranks[wi*size : (wi+1)*size]
		for i, p := range ptBuf {
			mi := int32(r.SuccessorIndex(p))
			row[i] = mi
			counts[mi]++
		}
	}

	// Pass 2a: groups and member lists from shared arenas.
	groupArena := make([]Group, n)
	memberArena := make([]Member, total)
	for wi := range pts {
		ms := memberArena[wi*size : (wi+1)*size : (wi+1)*size]
		for i, mi := range ranks[wi*size : (wi+1)*size] {
			ms[i] = Member{ID: pts[mi], Bad: badRank[mi]}
		}
		grp := &groupArena[wi]
		grp.Leader = pts[wi]
		grp.Members = ms
		g.classify(grp)
		g.byRank[wi] = grp
	}

	// Pass 2b: membership index with exact-size lists from one arena, filled
	// in ascending leader order (the order the naive loop appended in).
	leaderArena := make([]ring.Point, total)
	off := make([]int32, n+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	fill := make([]int32, n)
	for wi := range pts {
		for _, mi := range ranks[wi*size : (wi+1)*size] {
			leaderArena[off[mi]+fill[mi]] = pts[wi]
			fill[mi]++
		}
	}
	for mi, c := range counts {
		if c == 0 {
			continue
		}
		g.memberOf[pts[mi]] = leaderArena[off[mi]:off[mi+1]:off[mi+1]]
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

// Params returns the build parameters.
func (g *Graph) Params() Params { return g.params }

// GroupSize returns the target group size used at build time.
func (g *Graph) GroupSize() int { return g.size }

// Group returns G_w, or nil if w leads no group.
func (g *Graph) Group(w ring.Point) *Group {
	i, ok := g.rankOf(w)
	if !ok {
		return nil
	}
	return g.byRank[i]
}

// GroupAt returns the group led by the ring's i-th point — the search hot
// path's lookup when the rank is already known.
func (g *Graph) GroupAt(i int) *Group { return g.byRank[i] }

// Groups iterates over all groups in ring order of their leaders.
func (g *Graph) Groups() []*Group {
	out := make([]*Group, 0, len(g.byRank))
	for _, grp := range g.byRank {
		if grp != nil {
			out = append(out, grp)
		}
	}
	return out
}

// N returns the number of groups.
func (g *Graph) N() int { return len(g.byRank) }

// MemberOf returns the leaders of all groups containing id.
func (g *Graph) MemberOf(id ring.Point) []ring.Point { return g.memberOf[id] }

// SetConfused marks G_w as confused (used by the dynamic construction when
// a neighbor request fails, §III-B).
func (g *Graph) SetConfused(w ring.Point, confused bool) {
	if grp := g.Group(w); grp != nil {
		grp.Confused = confused
	}
}

// RedFraction returns the fraction of red groups — the empirical p_f of S2.
func (g *Graph) RedFraction() float64 {
	red := 0
	for _, grp := range g.byRank {
		if grp.Red() {
			red++
		}
	}
	return float64(red) / float64(len(g.byRank))
}

// BadFraction returns the fraction of bad (not merely confused) groups.
func (g *Graph) BadFraction() float64 {
	bad := 0
	for _, grp := range g.byRank {
		if grp.Bad {
			bad++
		}
	}
	return float64(bad) / float64(len(g.byRank))
}
