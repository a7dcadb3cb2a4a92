// Package overlay implements input graphs H satisfying the paper's
// properties P1–P4 (§I-C):
//
//   - P1 search functionality: RouteRanks returns the ring ranks of the IDs
//     traversed from a source ID to suc(key), a path of length D = O(log N);
//   - P2 load balancing: a random ID owns at most a (1+δ”)/N fraction of
//     the key space;
//   - P3 linking rules: Neighbors(w) is the set S_w, computable (and
//     verifiable) by successor searches;
//   - P4 congestion: the max probability any ID is traversed by a random
//     search is C = O(log^c N / N).
//
// Three constructions are provided, covering the degree classes the paper's
// Corollary 1 draws on: Chord [48] (Θ(log N) degree), a continuous-discrete
// de Bruijn graph in the style of D2B [19] / the distance-halving network
// [39] (O(1) expected degree), and a Viceroy-style butterfly [32] (O(1)
// expected degree).
//
// Graphs are deterministic functions of the ID ring (and a construction
// seed where levels are needed), so the same ring always yields the same
// topology — a requirement for the paper's verification-by-search (P3).
package overlay

import (
	"math"

	"repro/internal/ring"
)

// Graph is an input graph H over a set of IDs.
//
// Graphs are immutable once built: all methods are safe for concurrent
// readers, which is what lets the epoch pipeline fan searches over a shared
// old graph across workers without locks.
type Graph interface {
	// Name identifies the construction ("chord", "debruijn", "viceroy").
	Name() string
	// Ring returns the underlying ID set.
	Ring() *ring.Ring
	// Neighbors returns the neighbor set S_w of the ID w (property P3).
	// w must be an ID on the ring. The caller must not modify the result.
	Neighbors(w ring.Point) []ring.Point
	// RouteRanks returns the ring ranks of the IDs traversed by a search
	// initiated at the ring's srcRank-th ID for key, starting with srcRank
	// and ending with targetRank, which must be the rank of suc(key)
	// (property P1). Every hop is a P3 link. The walk may read key itself,
	// not only its owner: de Bruijn prepends the key's digits and Viceroy
	// descends by its distance. The ranks go into dst's backing array
	// (reset to dst[:0], grown only if capacity is short), so a caller
	// looping with one reused buffer routes without allocating. ok is false
	// if the route failed to terminate within maxHops (should not happen
	// for honest rings).
	RouteRanks(dst []int32, srcRank, targetRank int, key ring.Point) (ranks []int32, ok bool)
	// maxHops is the bound used by RouteRanks before declaring failure.
	maxHops() int
}

// Builder constructs a graph over a ring. seed parameterizes any
// construction randomness (e.g. Viceroy levels); chord and de Bruijn
// ignore it.
type Builder func(r *ring.Ring, seed int64) Graph

// Builders enumerates the available constructions by name, in a stable
// order, for experiment sweeps.
func Builders() []struct {
	Name  string
	Build Builder
} {
	return []struct {
		Name  string
		Build Builder
	}{
		{"chord", func(r *ring.Ring, _ int64) Graph { return NewChord(r) }},
		{"debruijn", func(r *ring.Ring, _ int64) Graph { return NewDeBruijn(r, 2) }},
		{"viceroy", NewViceroy},
	}
}

// log2Ceil returns ceil(log2(n)) with a floor of 1.
func log2Ceil(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// appendUnique appends p to s if not already present (neighbor sets are
// small, so linear scan beats a map).
func appendUnique(s []ring.Point, p ring.Point) []ring.Point {
	for _, q := range s {
		if q == p {
			return s
		}
	}
	return append(s, p)
}

// ringWalk extends ranks by walking along the ring from its last rank
// until reaching target, or until budget hops are spent. It walks in
// whichever direction (successor or predecessor — both are P3 links in
// every construction here) is shorter, re-evaluated each hop. Returns the
// extended route and whether target was reached.
func ringWalk(r *ring.Ring, ranks []int32, target, budget int) ([]int32, bool) {
	pts := r.Points()
	n := len(pts)
	cur := int(ranks[len(ranks)-1])
	for i := 0; i < budget; i++ {
		if cur == target {
			return ranks, true
		}
		if pts[cur].Dist(pts[target]) <= pts[target].Dist(pts[cur]) {
			cur = (cur + 1) % n
		} else {
			cur = (cur + n - 1) % n
		}
		ranks = append(ranks, int32(cur))
	}
	return ranks, cur == target
}
