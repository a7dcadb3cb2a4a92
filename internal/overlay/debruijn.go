package overlay

import (
	"fmt"
	"math/bits"

	"repro/internal/ring"
)

// DeBruijn is a continuous-discrete de Bruijn graph in the style of D2B
// [19] and the Naor–Wieder distance-halving network [39]: the continuous
// graph on [0,1) has edges z → (z+j)/d for digits j = 0..d-1 (prepending a
// base-d digit), and each ID w simulates the continuous points in the arc
// it owns. Expected degree is O(d); routes have length log_d N + O(1)
// prepend steps plus an O(1)-expected ring walk.
type DeBruijn struct {
	r       *ring.Ring
	base    int
	m       int // digits prepended per route: ceil(log_d N) + digitSlack
	maxHops int // cached MaxHops (log2Ceil does float math)
}

// digitSlack extends the prepend walk so the final virtual point lands
// within a d^-slack fraction of the target's owned arc w.h.p.
const digitSlack = 2

// NewDeBruijn builds a base-d continuous-discrete de Bruijn graph over r.
// base must be ≥ 2; base 2 corresponds to D2B / distance halving.
func NewDeBruijn(r *ring.Ring, base int) *DeBruijn {
	if base < 2 {
		panic(fmt.Sprintf("overlay: de Bruijn base must be >= 2, got %d", base))
	}
	n := r.Len()
	m := 1
	for v := 1; v < n && m < 64; m++ {
		v *= base
	}
	d := &DeBruijn{r: r, base: base, m: m + digitSlack}
	d.maxHops = d.m + 4*log2Ceil(n) + 16
	return d
}

func (d *DeBruijn) Name() string     { return "debruijn" }
func (d *DeBruijn) Ring() *ring.Ring { return d.r }

// MaxHops bounds a route by the prepend walk plus a generous ring-walk
// tail (the tail is O(1) expected, O(log N) w.h.p.).
func (d *DeBruijn) MaxHops() int { return d.maxHops }

// contraction maps z to (z+j)/d, the continuous de Bruijn edge that
// prepends digit j.
func contraction(z ring.Point, j, base int) ring.Point {
	// (z + j)/d on the ring: divide the 64-bit value and add j·(2^64/d).
	step := ^ring.Point(0)/ring.Point(base) + 1 // ≈ 2^64/d, exact for powers of two
	return z/ring.Point(base) + ring.Point(j)*step
}

// Neighbors returns S_w: the owners of the images of w's owned arc under
// each of the d contractions, plus ring successor and predecessor. By
// construction, for any continuous point z owned by w and any digit j, the
// owner of (z+j)/d appears in this set — which is exactly what RouteRanks
// hops across.
func (d *DeBruijn) Neighbors(w ring.Point) []ring.Point {
	s := make([]ring.Point, 0, 2*d.base+2)
	s = appendUnique(s, d.r.StrictSuccessor(w))
	s = appendUnique(s, d.r.Predecessor(w))
	a := d.r.Predecessor(w) // w owns (a, w]
	for j := 0; j < d.base; j++ {
		lo := contraction(a, j, d.base)
		hi := contraction(w, j, d.base)
		// Owners of every point in (lo, hi]: walk successors from lo to
		// suc(hi). The arc has length ≤ 1/(d·N)·const so this is O(1)
		// expected IDs.
		cur := d.r.StrictSuccessor(lo)
		stop := d.r.Successor(hi)
		for {
			if cur != w {
				s = appendUnique(s, cur)
			}
			if cur == stop {
				break
			}
			cur = d.r.StrictSuccessor(cur)
		}
	}
	return s
}

// maxDigits bounds the prepend walk length m (the construction caps m at
// 64 before adding digitSlack), sizing the stack buffer digitsInto fills.
const maxDigits = 64 + digitSlack

// digitsInto fills dst[:m] with the top m base-d digits of key, most
// significant first.
func (d *DeBruijn) digitsInto(key ring.Point, dst []int) {
	z := key
	for i := 0; i < d.m; i++ {
		// Top digit of z in base d: floor(z·d / 2^64).
		hi, lo := bits.Mul64(uint64(z), uint64(d.base))
		dst[i] = int(hi)
		z = ring.Point(lo)
	}
}

// RouteRanks walks the continuous de Bruijn edges toward key: it prepends
// the top m digits of key (least significant of the prefix first),
// resolving each virtual point to its owner, then finishes with a ring
// walk. This is the distance-halving route of [39] for d = 2: each prepend
// step halves the distance between the virtual point and the target
// prefix. The digit scratch lives on the stack, so steady-state routes are
// allocation-free.
func (d *DeBruijn) RouteRanks(dst []int32, srcRank, targetRank int, key ring.Point) ([]int32, bool) {
	dst = append(dst[:0], int32(srcRank))
	if srcRank == targetRank {
		return dst, true
	}
	var digitBuf [maxDigits]int
	digits := digitBuf[:d.m]
	d.digitsInto(key, digits)
	z := d.r.At(srcRank)
	cur := srcRank
	for i := d.m - 1; i >= 0; i-- {
		z = contraction(z, digits[i], d.base)
		if owner := d.r.SuccessorIndex(z); owner != cur {
			dst = append(dst, int32(owner))
			cur = owner
		}
	}
	// The virtual point is now within d^-m of key's prefix; close the gap
	// along the ring.
	return ringWalk(d.r, dst, targetRank, d.maxHops-len(dst)+1)
}
