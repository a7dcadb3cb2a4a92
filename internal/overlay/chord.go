package overlay

import (
	"math/bits"

	"repro/internal/ring"
)

// Chord is the classic Θ(log N)-degree DHT of Stoica et al. [48], the
// paper's running example for property P3 (footnote 11): the neighbors of w
// are its ring successor and predecessor plus the successors of the points
// w + Δ(i) for exponentially increasing distances Δ(i) = 1/2^i.
//
// Neighbor tables for every ID are precomputed at construction (the ring is
// immutable once a Chord is built — epoch churn builds a fresh graph), so
// all queries after NewChord are pure reads: safe for concurrent searchers
// and allocation-free. The tables are one CSR layout: off[i]:off[i+1] is
// the i-th ring point's slice of two flat arenas, its neighbor points (read
// only by Neighbors) and their ring ranks. Each slice is sorted by strictly
// decreasing clockwise progress from its point — predecessor, fingers by
// level, successor — so a greedy hop is the first entry not overshooting
// the target, and a guess from the remaining distance's magnitude finds it
// in a probe or two. RouteRanks reads only off, the rank arena and the
// ring's point array: at n = 2^14 that is about 1.2 MB, small enough to stay
// in a core's L2 cache across the millions of searches of an epoch build.
type Chord struct {
	r       *ring.Ring
	maxHops int // cached MaxHops (log2Ceil does float math)
	off     []int32
	nbr     []ring.Point
	rank    []int32 // rank[k] is the ring rank of nbr[k]
}

// fingerSlack adds levels beyond log2 N so the densest finger reaches the
// immediate neighborhood even under adversarially uneven ID placement.
const fingerSlack = 2

// NewChord builds a Chord graph over the IDs on r. The ring must not be
// mutated afterwards (build a new graph instead).
//
// As w walks the ring in order, every finger target w + Δ(i) moves
// clockwise and wraps past 2^64 at most once, so each level keeps one
// successor cursor that only advances: the whole table costs O(n·m) steps
// and no ring search. Emitted as predecessor, f_1..f_m, successor, the
// entries already come in non-increasing progress order, so duplicates are
// adjacent and deduplication compares with the previous entry only.
func NewChord(r *ring.Ring) *Chord {
	n := r.Len()
	m := log2Ceil(n) + fingerSlack // finger levels
	c := &Chord{r: r, maxHops: 4*log2Ceil(n) + 16}
	c.off = make([]int32, n+1)
	if n == 0 {
		return c
	}
	pts := r.Points()
	c.nbr = make([]ring.Point, 0, n*(m+2))
	c.rank = make([]int32, 0, n*(m+2))
	// cur[i-1] is level i's cursor on the ring lifted to two turns: a value
	// j ≥ n stands for pts[j-n] + 2^64. It is the first lifted point at or
	// past w + Δ(i), so SuccessorIndex(w + Δ(i)) is cur % n. It never
	// passes 2n-1, because pts[n-1] + 2^64 exceeds every target.
	cur := make([]int, m)
	add := func(wi, fi int) {
		if k := len(c.rank); k > int(c.off[wi]) && c.rank[k-1] == int32(fi) {
			return
		}
		c.nbr = append(c.nbr, pts[fi])
		c.rank = append(c.rank, int32(fi))
	}
	for wi, w := range pts {
		c.off[wi] = int32(len(c.rank))
		add(wi, (wi+n-1)%n) // predecessor: the most progress
		for i := 1; i <= m; i++ {
			x := w + ring.Point(1)<<(64-uint(i)) // w + 1/2^i of the ring
			wrapped := x < w
			j := cur[i-1]
			for (j < n && (wrapped || pts[j] < x)) || (j >= n && wrapped && pts[j-n] < x) {
				j++
			}
			cur[i-1] = j
			if fi := j % n; fi != wi {
				add(wi, fi)
			}
		}
		add(wi, (wi+1)%n) // strict successor: the least progress
	}
	c.off[n] = int32(len(c.rank))
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
		lo, hi := c.off[wi], c.off[wi+1]
		return c.nbr[lo:hi:hi]
	}
	return nil
}

// RouteRanks performs greedy Chord routing: at each step, hop to the
// neighbor that makes the most clockwise progress toward the target
// without overshooting it. The neighbor tables carry ranks natively, so a
// route costs zero ring searches and zero allocations once dst has
// capacity; key is not needed beyond its owner's rank.
//
// The hop is the first table entry not overshooting the remaining distance
// goal. Entry 1+lz, lz the leading zeros of goal, is finger level lz+1,
// whose Δ = 2^(63-lz) is the largest finger distance ≤ goal; deduplication
// only moves entries earlier. The walk starts there and steps forward
// while the entry overshoots or back while its predecessor does not — the
// same answer as a scan from the front, in a probe or two.
func (c *Chord) RouteRanks(dst []int32, srcRank, targetRank int, _ ring.Point) ([]int32, bool) {
	pts := c.r.Points()
	curi, ti := srcRank, targetRank
	target := pts[ti]
	dst = append(dst[:0], int32(curi))
	for hop := 0; hop < c.maxHops; hop++ {
		if curi == ti {
			return dst, true
		}
		cur := pts[curi]
		goal := cur.Dist(target)
		nbrs := c.rank[c.off[curi]:c.off[curi+1]]
		k := min(bits.LeadingZeros64(uint64(goal))+1, len(nbrs)-1)
		for k < len(nbrs) && cur.Dist(pts[nbrs[k]]) > goal {
			k++
		}
		for k > 0 && cur.Dist(pts[nbrs[k-1]]) <= goal {
			k--
		}
		if k == len(nbrs) {
			// No neighbor precedes the target: the strict successor is the
			// target itself (it is always a neighbor), so this is
			// unreachable on a consistent ring; fail defensively.
			return dst, false
		}
		curi = int(nbrs[k])
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
