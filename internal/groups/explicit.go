package groups

import (
	"repro/internal/overlay"
	"repro/internal/ring"
)

// BuildExplicitRanked constructs a group graph from externally assembled
// memberships — the dynamic case (§III), where the members of each new
// group were located by (possibly failing) searches in the old group
// graphs rather than read off the ground-truth ring.
//
// members and confused are indexed by ring rank: members[i] is the member
// list of the group led by the i-th point of ov's ring and confused[i]
// marks its neighbor establishment as failed (Lemma 8). This is the form
// the epoch pipeline produces directly from its rank-indexed arenas. Short
// member lists yield bad groups via the size criterion (definition (i)).
// The member slices are retained by the graph, not copied; confused may be
// nil.
func BuildExplicitRanked(ov overlay.Graph, params Params, members [][]Member, confused []bool) *Graph {

	r := ov.Ring()
	n := r.Len()
	g := &Graph{
		ov:       ov,
		params:   params,
		byRank:   make([]*Group, n),
		memberOf: make(map[ring.Point][]ring.Point, n),
		size:     params.SizeFor(n),
	}
	g.buildRankIndex()
	groupArena := make([]Group, n)
	for wi, w := range r.Points() {
		grp := &groupArena[wi]
		grp.Leader = w
		if wi < len(members) {
			grp.Members = members[wi]
		}
		if wi < len(confused) {
			grp.Confused = confused[wi]
		}
		g.classify(grp)
		g.byRank[wi] = grp
		for _, m := range grp.Members {
			g.memberOf[m.ID] = append(g.memberOf[m.ID], w)
		}
	}
	return g
}
