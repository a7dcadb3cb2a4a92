package baseline

import (
	"math/rand"
	"slices"

	"repro/internal/ring"
)

// CuckooConfig parameterizes a cuckoo-rule join-leave-attack simulation in
// the style of [47] (Sen & Freedman) over the Awerbuch–Scheideler rule
// [8]–[10]: on every join, the joiner is placed at a u.a.r. point and all
// nodes in the k-region containing that point are evicted and re-placed at
// u.a.r. points.
type CuckooConfig struct {
	N    int     // total nodes (constant: each event is a leave+rejoin)
	Beta float64 // adversary node fraction
	// K is the cuckoo-region granularity: the ring is split into N/K
	// k-regions of size K/N each; K = 0 disables eviction (plain random
	// join — the undefended baseline).
	K int
	// GroupSize g sets the group regions: the ring is split into N/g
	// regions and a region is compromised when at least half its occupants
	// are adversarial (majority filtering broken).
	GroupSize int
	// Events is the number of adversarial leave+rejoin events to run.
	Events int
	// Targeted selects the attack: if true, the adversary always churns a
	// bad node *outside* the most-infected region (the classic join-leave
	// ratchet); otherwise it churns a u.a.r. bad node.
	Targeted bool
	Seed     int64
}

// CuckooResult reports the outcome.
type CuckooResult struct {
	Survived       bool // no region ever lost its good majority
	SurvivedEvents int  // events completed before first compromise (== Events if survived)
	MaxBadFraction float64
}

// cuckooSim holds the mutable simulation state.
type cuckooSim struct {
	cfg CuckooConfig
	rng *rand.Rand
	// kreg holds the occupants of each k-region, sorted ascending: about K
	// points each, so a join or leave shifts a handful of points instead of
	// N. With K = 0 (no eviction) the buckets are only storage, about one
	// occupant each.
	kreg    [][]ring.Point
	bad     []ring.Point // adversarial occupants, sorted ascending
	regions int
	regBad  []int        // bad occupants per group region
	regTot  []int        // occupants per group region
	touched []int        // regions modified during the current event
	evict   []ring.Point // the k-region a join is evicting
}

// newCuckooSim returns a simulation whose population is already placed by
// the join rule itself (an honest bootstrap, adversary last).
func newCuckooSim(cfg CuckooConfig) *cuckooSim {
	if cfg.GroupSize < 1 {
		cfg.GroupSize = 8
	}
	nBad := int(cfg.Beta * float64(cfg.N))
	s := &cuckooSim{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		kreg:    make([][]ring.Point, max(cfg.N/max(cfg.K, 1), 1)),
		bad:     make([]ring.Point, 0, nBad),
		regions: max(cfg.N/cfg.GroupSize, 1),
	}
	// Carve the buckets from one array, twice the mean occupancy each; a
	// bucket that outgrows its share moves to its own array.
	c := 2 * max(cfg.K, 1)
	backing := make([]ring.Point, c*len(s.kreg))
	for i := range s.kreg {
		s.kreg[i] = backing[i*c : i*c : (i+1)*c]
	}
	s.regBad = make([]int, s.regions)
	s.regTot = make([]int, s.regions)
	for i := 0; i < cfg.N; i++ {
		s.join(i >= cfg.N-nBad)
		s.touched = s.touched[:0] // the bootstrap check covers every region
	}
	return s
}

// regionIndex returns which of count aligned arcs holds p. The arcs are
// ⌈2⁶⁴/count⌉ wide, so when count does not divide 2⁶⁴ the top arc is
// shorter than the rest.
func regionIndex(p ring.Point, count int) int {
	width := ^uint64(0)/uint64(count) + 1
	if width == 0 { // count == 1: the whole ring
		return 0
	}
	return int(uint64(p) / width)
}

func (s *cuckooSim) regionOf(p ring.Point) int { return regionIndex(p, s.regions) }

// bucket returns the occupants of the k-region containing p.
func (s *cuckooSim) bucket(p ring.Point) *[]ring.Point {
	return &s.kreg[regionIndex(p, len(s.kreg))]
}

func (s *cuckooSim) place(p ring.Point, isBad bool) {
	for {
		b := s.bucket(p)
		i, taken := slices.BinarySearch(*b, p)
		if !taken {
			*b = slices.Insert(*b, i, p)
			break
		}
		p++ // collision: nudge (probability ~0)
	}
	r := s.regionOf(p)
	s.regTot[r]++
	if isBad {
		i, _ := slices.BinarySearch(s.bad, p)
		s.bad = slices.Insert(s.bad, i, p)
		s.regBad[r]++
	}
	s.touched = append(s.touched, r)
}

// remove takes the occupant at p off the ring.
func (s *cuckooSim) remove(p ring.Point) (wasBad bool) {
	b := s.bucket(p)
	i, _ := slices.BinarySearch(*b, p)
	*b = slices.Delete(*b, i, i+1)
	r := s.regionOf(p)
	s.regTot[r]--
	if i, wasBad = slices.BinarySearch(s.bad, p); wasBad {
		s.bad = slices.Delete(s.bad, i, i+1)
		s.regBad[r]--
	}
	s.touched = append(s.touched, r)
	return wasBad
}

// join places a new node of the given badness per the cuckoo rule:
// u.a.r. position x, evict the k-region of x, re-place evictees u.a.r.
func (s *cuckooSim) join(isBad bool) {
	x := ring.Point(s.rng.Uint64())
	if s.cfg.K > 0 {
		// Copy the bucket: its evictees may land back in it.
		s.evict = append(s.evict[:0], *s.bucket(x)...)
		for _, p := range s.evict {
			evictedBad := s.remove(p)
			s.place(ring.Point(s.rng.Uint64()), evictedBad)
		}
	}
	s.place(x, isBad)
}

// compromised reports whether any of the given group regions has lost its
// good majority, and the worst bad fraction among them. An empty region has
// no group to subvert ([47] treats occupancy separately) and is skipped.
func (s *cuckooSim) compromised(regions []int) (bool, float64) {
	worst := 0.0
	comp := false
	for _, r := range regions {
		if s.regTot[r] == 0 {
			continue
		}
		f := float64(s.regBad[r]) / float64(s.regTot[r])
		if f > worst {
			worst = f
		}
		if 2*s.regBad[r] >= s.regTot[r] {
			comp = true
		}
	}
	return comp, worst
}

// allRegions lists every region index (for the full bootstrap check).
func (s *cuckooSim) allRegions() []int {
	out := make([]int, s.regions)
	for i := range out {
		out[i] = i
	}
	return out
}

// step runs one adversarial event: a bad node leaves and rejoins. It
// reports false when the adversary has no node to churn.
func (s *cuckooSim) step() bool {
	victim := s.pickChurnNode()
	if victim == -1 {
		return false
	}
	s.touched = s.touched[:0]
	s.remove(s.bad[victim])
	s.join(true)
	return true
}

// RunCuckoo executes the join-leave attack and reports survival.
func RunCuckoo(cfg CuckooConfig) CuckooResult {
	s := newCuckooSim(cfg)
	res := CuckooResult{Survived: true, SurvivedEvents: cfg.Events}
	comp, worst := s.compromised(s.allRegions())
	res.MaxBadFraction = worst
	if comp {
		// Compromised at bootstrap (group size too small for this β).
		res.Survived = false
		res.SurvivedEvents = 0
		return res
	}
	for e := 1; e <= cfg.Events && s.step(); e++ {
		comp, worst := s.compromised(s.touched)
		if worst > res.MaxBadFraction {
			res.MaxBadFraction = worst
		}
		if comp {
			res.Survived = false
			res.SurvivedEvents = e
			return res
		}
	}
	return res
}

// pickChurnNode selects the index in s.bad of the bad node that departs:
// under the targeted attack, a bad node outside the currently most-infected
// region (preserving the beachhead); otherwise u.a.r.
func (s *cuckooSim) pickChurnNode() int {
	if len(s.bad) == 0 {
		return -1
	}
	if !s.cfg.Targeted {
		return s.rng.Intn(len(s.bad))
	}
	best, bestFrac := -1, -1.0
	for r := 0; r < s.regions; r++ {
		if s.regTot[r] > 0 {
			if f := float64(s.regBad[r]) / float64(s.regTot[r]); f > bestFrac {
				bestFrac, best = f, r
			}
		}
	}
	for tries := 0; tries < 32; tries++ {
		i := s.rng.Intn(len(s.bad))
		if s.regionOf(s.bad[i]) != best {
			return i
		}
	}
	return s.rng.Intn(len(s.bad))
}
