package overlay

import (
	"repro/internal/ring"
)

// Chord is the classic Θ(log N)-degree DHT of Stoica et al. [48], the
// paper's running example for property P3 (footnote 11): the neighbors of w
// are its ring successor and predecessor plus the successors of the points
// w + Δ(i) for exponentially increasing distances Δ(i) = 1/2^i.
//
// Neighbor tables for every ID are precomputed at construction into
// rank-indexed arenas (the ring is immutable once a Chord is built — epoch
// churn builds a fresh graph), so all queries after NewChord are pure reads:
// safe for concurrent searchers and allocation-free. The parallel neighbor
// rank table lets RouteRanks walk greedy hops without a single ring search.
type Chord struct {
	r       *ring.Ring
	m       int // number of finger levels, ceil(log2 N) + fingerSlack
	maxHops int // cached MaxHops (log2Ceil does float math)
	// nbr[i] is the neighbor set of the i-th ring point, sorted by
	// descending clockwise progress from the point — so greedy routing
	// takes the first entry not overshooting the target instead of
	// scanning the whole set. nbrRank[i][k] is the ring rank of nbr[i][k].
	// Both are views into shared arenas.
	nbr     [][]ring.Point
	nbrRank [][]int32
}

// fingerSlack adds levels beyond log2 N so the densest finger reaches the
// immediate neighborhood even under adversarially uneven ID placement.
const fingerSlack = 2

// NewChord builds a Chord graph over the IDs on r. The ring must not be
// mutated afterwards (build a new graph instead).
func NewChord(r *ring.Ring) *Chord {
	c := &Chord{r: r, m: log2Ceil(r.Len()) + fingerSlack}
	c.maxHops = 4*log2Ceil(r.Len()) + 16
	n := r.Len()
	c.nbr = make([][]ring.Point, n)
	c.nbrRank = make([][]int32, n)
	if n == 0 {
		return c
	}
	pts := r.Points()
	// Worst case degree is m+2; ranks are appended in lock-step with points
	// so both arenas stay aligned.
	ptArena := make([]ring.Point, 0, n*(c.m+2))
	rkArena := make([]int32, 0, n*(c.m+2))
	for wi, w := range pts {
		start := len(ptArena)
		add := func(p ring.Point, rank int) {
			for _, q := range ptArena[start:] {
				if q == p {
					return
				}
			}
			ptArena = append(ptArena, p)
			rkArena = append(rkArena, int32(rank))
		}
		add(pts[(wi+1)%n], (wi+1)%n) // strict successor
		add(pts[(wi+n-1)%n], (wi+n-1)%n)
		for i := 1; i <= c.m; i++ {
			delta := ring.Point(1) << (64 - uint(i)) // 1/2^i of the ring
			fi := r.SuccessorIndex(w + delta)
			if pts[fi] != w {
				add(pts[fi], fi)
			}
		}
		set, rks := ptArena[start:], rkArena[start:]
		// Sort by descending clockwise progress from w (insertion sort: the
		// set is m+2 small). Progress values are distinct, so the greedy
		// route picks the same neighbor the full max-scan would.
		for i := 1; i < len(set); i++ {
			p, rk := set[i], rks[i]
			j := i
			for ; j > 0 && w.Dist(set[j-1]) < w.Dist(p); j-- {
				set[j], rks[j] = set[j-1], rks[j-1]
			}
			set[j], rks[j] = p, rk
		}
		c.nbr[wi] = ptArena[start:len(ptArena):len(ptArena)]
		c.nbrRank[wi] = rkArena[start:len(rkArena):len(rkArena)]
	}
	return c
}

func (c *Chord) Name() string     { return "chord" }
func (c *Chord) Ring() *ring.Ring { return c.r }

// MaxHops bounds routes at 4·log2 N + 16: greedy Chord routing halves the
// remaining distance every hop w.h.p., so this is generous.
func (c *Chord) MaxHops() int { return c.maxHops }

// Neighbors returns S_w: ring successor, ring predecessor, and the finger
// successors suc(w + 1/2^i) for i = 1..m — a precomputed-table read,
// ordered by descending clockwise progress from w, or nil when w is not a
// ring ID. The caller must not modify the result.
func (c *Chord) Neighbors(w ring.Point) []ring.Point {
	if wi, ok := c.r.Index(w); ok {
		return c.nbr[wi]
	}
	return nil
}

// RouteRanks performs greedy Chord routing: at each step, hop to the
// neighbor that makes the most clockwise progress toward the target
// without overshooting it. The neighbor tables carry ranks natively, so a
// route costs zero ring searches and zero allocations once dst has
// capacity; key is not needed beyond its owner's rank.
func (c *Chord) RouteRanks(dst []int32, srcRank, targetRank int, _ ring.Point) ([]int32, bool) {
	pts := c.r.Points()
	curi, ti := srcRank, targetRank
	cur, target := pts[curi], pts[ti]
	dst = append(dst[:0], int32(curi))
	for hop := 0; hop < c.maxHops; hop++ {
		if curi == ti {
			return dst, true
		}
		goal := cur.Dist(target)
		nbrs, ranks := c.nbr[curi], c.nbrRank[curi]
		// The table is sorted by descending progress, so the first entry
		// not overshooting the target is the greedy maximum.
		best := -1
		for k, nb := range nbrs {
			prog := cur.Dist(nb)
			if prog != 0 && prog <= goal {
				best = k
				break
			}
		}
		if best < 0 {
			// No neighbor precedes the target: the strict successor is the
			// target itself (it is always a neighbor), so this is
			// unreachable on a consistent ring; fail defensively.
			return dst, false
		}
		cur = nbrs[best]
		curi = int(ranks[best])
		dst = append(dst, int32(curi))
	}
	return dst, curi == ti
}

// RouteInto is RouteRanks from the ring ID src toward key, written as
// points into dst's backing array; it is the form the benchmark module's
// read ladder times. A src that is not a ring ID yields [src], false.
func (c *Chord) RouteInto(dst []ring.Point, src, key ring.Point) ([]ring.Point, bool) {
	si, ok := c.r.Index(src)
	if !ok {
		return append(dst[:0], src), false
	}
	var buf [128]int32 // holds any route on up to 2^27 IDs; longer ones spill to the heap
	ranks, ok := c.RouteRanks(buf[:0], si, c.r.SuccessorIndex(key), key)
	dst = dst[:0]
	for _, ri := range ranks {
		dst = append(dst, c.r.At(int(ri)))
	}
	return dst, ok
}
