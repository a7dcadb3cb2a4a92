// Package ring implements the identifier space of the paper: the unit
// interval [0,1) viewed as a ring, where moving clockwise corresponds to
// moving from 0 towards 1 and wrapping around.
//
// Points are represented as 64-bit fixed-point fractions: the point
// p ∈ [0,1) is stored as the uint64 floor(p·2⁶⁴). All arithmetic is modular,
// so clockwise distance is plain wrapping subtraction. The paper notes that
// O(log n) bits of precision suffice; 64 bits comfortably exceed that for
// any simulable n.
package ring

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Point is a position in the ID space [0,1), in 64-bit fixed point.
// An ID is a Point that some participant owns; keys of resources are also
// Points. The zero value is the point 0.
type Point uint64

// FromFloat converts a float in [0,1) to a Point. Values outside [0,1) are
// reduced modulo 1.
func FromFloat(f float64) Point {
	f -= math.Floor(f)
	// 1<<64 is not representable; scale by 2^63 twice to avoid overflow at f≈1.
	p := f * (1 << 63)
	return Point(uint64(p) << 1)
}

// float returns the point as a float64 in [0,1). It loses the low bits of
// precision and is intended for reporting, not for ring arithmetic.
func (p Point) float() float64 {
	return float64(p) / (1 << 63) / 2
}

// Dist returns the clockwise distance from p to q as a fraction of the ring,
// i.e. the length of the arc swept moving clockwise from p until reaching q.
func (p Point) Dist(q Point) Point {
	return q - p // wrapping subtraction is exactly clockwise distance
}

// String formats the point as a fraction for debugging.
func (p Point) String() string {
	return fmt.Sprintf("%.6f", p.float())
}

// Ring is a sorted set of Points supporting successor queries, the
// fundamental operation of every DHT-style input graph (property P1's
// "ID responsible for a key" is the key's successor).
//
// The zero value is an empty ring. A Ring is immutable after New, so it is
// safe for concurrent use.
type Ring struct {
	pts []Point // sorted ascending, no duplicates
}

// New builds a ring from the given points (duplicates are dropped).
func New(pts []Point) *Ring {
	r := &Ring{pts: make([]Point, len(pts))}
	copy(r.pts, pts)
	sort.Slice(r.pts, func(i, j int) bool { return r.pts[i] < r.pts[j] })
	r.pts = dedupe(r.pts)
	return r
}

func dedupe(s []Point) []Point {
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, p := range s[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// Len returns the number of points on the ring.
func (r *Ring) Len() int { return len(r.pts) }

// Points returns the sorted underlying points. The caller must not modify
// the returned slice.
func (r *Ring) Points() []Point { return r.pts }

// search returns the smallest index i with pts[i] >= x (possibly len(pts)).
// Successor lookups are the innermost loop of group construction and
// routing, so this is interpolation-first: IDs are u.a.r. in [0,1), which
// makes a point's rank track its value linearly and lets a few guesses
// land within a handful of slots (expected O(log log n) probes). The
// interpolation rounds are capped so clustered distributions (e.g. the
// adversary's near-key placement) degrade to plain O(log n) binary search,
// never to linear scanning.
func (r *Ring) search(x Point) int {
	pts := r.pts
	n := len(pts)
	if n == 0 || x <= pts[0] {
		return 0
	}
	if x > pts[n-1] {
		return n
	}
	// Invariant: pts[lo] < x <= pts[hi].
	lo, hi := 0, n-1
	for iter := 0; iter < 4 && hi-lo > 8; iter++ {
		span := uint64(pts[hi] - pts[lo])
		frac := uint64(x - pts[lo])
		phi, plo := bits.Mul64(uint64(hi-lo), frac)
		q, _ := bits.Div64(phi, plo, span)
		mid := lo + int(q)
		if mid <= lo {
			mid = lo + 1
		} else if mid >= hi {
			mid = hi - 1
		}
		if pts[mid] >= x {
			hi = mid
		} else {
			lo = mid
		}
	}
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid] >= x {
			hi = mid
		} else {
			lo = mid
		}
	}
	for i := lo + 1; i < hi; i++ {
		if pts[i] >= x {
			return i
		}
	}
	return hi
}

// Successor returns suc(x): the first point encountered moving clockwise
// from x, where a point at exactly x is its own successor. Panics on an
// empty ring.
func (r *Ring) Successor(x Point) Point {
	return r.pts[r.SuccessorIndex(x)]
}

// SuccessorIndex returns the rank of suc(x): the index into Points() of the
// first point encountered moving clockwise from x (a point at exactly x is
// its own successor). Builders that need both the successor and its rank —
// e.g. group construction resolving d₂·ln ln n members per group — use this
// to avoid a second search. Panics on an empty ring.
func (r *Ring) SuccessorIndex(x Point) int {
	if len(r.pts) == 0 {
		panic("ring: SuccessorIndex on empty ring")
	}
	i := r.search(x)
	if i == len(r.pts) {
		i = 0 // wrap
	}
	return i
}

// StrictSuccessor returns the first point strictly clockwise of x.
func (r *Ring) StrictSuccessor(x Point) Point {
	if len(r.pts) == 0 {
		panic("ring: StrictSuccessor on empty ring")
	}
	i := sort.Search(len(r.pts), func(i int) bool { return r.pts[i] > x })
	if i == len(r.pts) {
		i = 0
	}
	return r.pts[i]
}

// Predecessor returns the first point strictly counter-clockwise of x.
func (r *Ring) Predecessor(x Point) Point {
	if len(r.pts) == 0 {
		panic("ring: Predecessor on empty ring")
	}
	i := r.search(x)
	if i == 0 {
		return r.pts[len(r.pts)-1]
	}
	return r.pts[i-1]
}

// Contains reports whether x is a point on the ring.
func (r *Ring) Contains(x Point) bool {
	i := r.search(x)
	return i < len(r.pts) && r.pts[i] == x
}

// Index returns the rank of x on the ring and whether x is present.
func (r *Ring) Index(x Point) (int, bool) {
	i := r.search(x)
	if i < len(r.pts) && r.pts[i] == x {
		return i, true
	}
	return i, false
}

// At returns the i-th smallest point (0-based).
func (r *Ring) At(i int) Point { return r.pts[i] }

// OwnedArc returns the fraction of the key space owned by the point p on
// this ring: the clockwise arc from its predecessor to p (property P2's
// "fraction of key values" for which p is responsible). Returns 1 for a
// single-point ring.
func (r *Ring) OwnedArc(p Point) float64 {
	if len(r.pts) == 1 {
		return 1
	}
	pred := r.Predecessor(p)
	return pred.Dist(p).float()
}
