package overlay

import (
	"encoding/binary"

	"repro/internal/ring"
)

// Viceroy is a butterfly-network overlay in the style of Malkhi, Naor and
// Ratajczak [32]: each ID independently selects a level ℓ ∈ {1..L},
// L ≈ log2 N, and links to
//
//   - an "up" node: the first level-(ℓ−1) ID clockwise of it,
//   - a "down-left" node: the first level-(ℓ+1) ID clockwise of it,
//   - a "down-right" node: the first level-(ℓ+1) ID clockwise of the point
//     half a level-width away (distance 1/2^ℓ),
//   - its same-level ring neighbors and its general ring neighbors.
//
// Degree is O(1). Routing proceeds up to level 1, descends the butterfly
// halving distance at each level, then finishes with a ring walk; total
// length is O(log N) w.h.p.
//
// Levels are drawn from the construction seed so that the topology is a
// deterministic function of (ring, seed), as required for P3 verification.
type Viceroy struct {
	r      *ring.Ring
	seed   int64
	levels int
	byLvl  []*ring.Ring // byLvl[ℓ-1] holds the level-ℓ IDs
	// lvlRank[ℓ-1][j] is the ring rank of byLvl[ℓ-1]'s j-th ID and lvl[i]
	// the level of the ring's i-th ID, so links resolve straight to ranks.
	lvlRank [][]int32
	lvl     []int
}

// NewViceroy builds a Viceroy graph over r with levels derived from seed.
func NewViceroy(r *ring.Ring, seed int64) Graph {
	n := r.Len()
	levels := log2Ceil(n)
	if levels < 1 {
		levels = 1
	}
	v := &Viceroy{
		r:       r,
		seed:    seed,
		levels:  levels,
		byLvl:   make([]*ring.Ring, levels),
		lvlRank: make([][]int32, levels),
		lvl:     make([]int, n),
	}
	perLvl := make([][]ring.Point, levels)
	for i, p := range r.Points() {
		l := v.levelOf(p)
		v.lvl[i] = l
		perLvl[l-1] = append(perLvl[l-1], p)
		v.lvlRank[l-1] = append(v.lvlRank[l-1], int32(i))
	}
	for i := range v.byLvl {
		v.byLvl[i] = ring.New(perLvl[i])
	}
	return v
}

// levelOf derives the level of p deterministically from (seed, p), uniform
// over 1..levels.
func (v *Viceroy) levelOf(p ring.Point) int {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(v.seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(p))
	return 1 + int(mix64(buf[:])%uint64(v.levels))
}

// mix64 is an FNV-1a hash with a splitmix64 finalizer. Viceroy levels only
// need uniformity, not cryptographic strength; using a local mixer keeps
// overlay dependency-free below ring.
func mix64(data []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (v *Viceroy) Name() string     { return "viceroy" }
func (v *Viceroy) Ring() *ring.Ring { return v.r }

// MaxHops: up phase ≤ L, down phase ≤ L, ring walk O(log N) w.h.p.
func (v *Viceroy) MaxHops() int { return 6*v.levels + 32 }

// lvlRing returns the ring of level-ℓ IDs, or nil if ℓ is out of range or
// the level is empty.
func (v *Viceroy) lvlRing(l int) *ring.Ring {
	if l < 1 || l > v.levels {
		return nil
	}
	lr := v.byLvl[l-1]
	if lr.Len() == 0 {
		return nil
	}
	return lr
}

// up returns the rank of the ring's wi-th ID's up-link (first
// level-(ℓ−1) ID clockwise), or wi itself if none exists.
func (v *Viceroy) up(wi int) int {
	for t := v.lvl[wi] - 1; t >= 1; t-- {
		if lr := v.lvlRing(t); lr != nil {
			return int(v.lvlRank[t-1][lr.SuccessorIndex(v.r.At(wi))])
		}
	}
	return wi
}

// down returns the ranks of the ring's wi-th ID's down-left and down-right
// links at the first non-empty level below its own. ok is false at the
// bottom of the butterfly.
func (v *Viceroy) down(wi int) (left, right int, ok bool) {
	l := v.lvl[wi]
	w := v.r.At(wi)
	half := ring.Point(1) << (64 - uint(l)) // 1/2^ℓ of the ring
	for t := l + 1; t <= v.levels; t++ {
		if lr := v.lvlRing(t); lr != nil {
			ranks := v.lvlRank[t-1]
			return int(ranks[lr.SuccessorIndex(w)]), int(ranks[lr.SuccessorIndex(w+half)]), true
		}
	}
	return 0, 0, false
}

// Neighbors returns S_w: ring neighbors, same-level ring neighbors, the up
// link, and the two down links (property P3 — each is the successor of a
// w-derived point on a public sub-ring, so any ID can verify membership by
// search). It is nil when w is not a ring ID.
func (v *Viceroy) Neighbors(w ring.Point) []ring.Point {
	wi, onRing := v.r.Index(w)
	if !onRing {
		return nil
	}
	s := make([]ring.Point, 0, 8)
	add := func(p ring.Point) {
		if p != w {
			s = appendUnique(s, p)
		}
	}
	add(v.r.StrictSuccessor(w))
	add(v.r.Predecessor(w))
	if lr := v.lvlRing(v.lvl[wi]); lr != nil && lr.Len() > 1 {
		add(lr.StrictSuccessor(w))
		add(lr.Predecessor(w))
	}
	add(v.r.At(v.up(wi)))
	if dl, dr, ok := v.down(wi); ok {
		add(v.r.At(dl))
		add(v.r.At(dr))
	}
	return s
}

// RouteRanks ascends to level 1, descends the butterfly choosing
// down-right whenever the remaining clockwise distance to the key exceeds
// the current level width, then closes the residual gap along the ring.
// Steady-state routes are allocation-free once dst has capacity.
func (v *Viceroy) RouteRanks(dst []int32, srcRank, targetRank int, key ring.Point) ([]int32, bool) {
	route := append(dst[:0], int32(srcRank))
	if srcRank == targetRank {
		return route, true
	}
	cur := srcRank
	budget := v.MaxHops()
	// Up phase.
	for v.lvl[cur] > 1 && len(route) < budget {
		next := v.up(cur)
		if next == cur {
			break
		}
		cur = next
		route = append(route, int32(cur))
	}
	// Down phase: at level ℓ the down-right link jumps ~1/2^ℓ clockwise;
	// take it iff the remaining distance warrants, mirroring butterfly
	// descent. All links are clockwise successors, so the distance to the
	// key shrinks monotonically unless rounding carries us past it — in
	// that case stop and let the bidirectional ring walk recover.
	for len(route) < budget {
		dl, dr, ok := v.down(cur)
		if !ok {
			break
		}
		before := v.r.At(cur).Dist(key)
		width := ring.Point(1) << (64 - uint(v.lvl[cur]))
		next := dl
		if before >= width {
			next = dr
		}
		if next != cur {
			cur = next
			route = append(route, int32(cur))
		}
		if cur == targetRank {
			return route, true
		}
		if v.r.At(cur).Dist(key) > before {
			break // passed the key
		}
	}
	return ringWalk(v.r, route, targetRank, budget-len(route)+1)
}
