package overlay

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/ring"
)

// refChord is the straightforward Chord table the CSR build must equal
// entry for entry: every finger resolved by its own successor search,
// duplicates dropped by scanning the set, and the set insertion-sorted by
// descending clockwise progress.
type refChord struct {
	r     *ring.Ring
	nbr   [][]ring.Point
	ranks [][]int32
}

func newRefChord(r *ring.Ring) *refChord {
	n := r.Len()
	m := log2Ceil(n) + fingerSlack
	pts := r.Points()
	rc := &refChord{r: r, nbr: make([][]ring.Point, n), ranks: make([][]int32, n)}
	for wi, w := range pts {
		var set []ring.Point
		var rks []int32
		add := func(fi int) {
			for _, q := range set {
				if q == pts[fi] {
					return
				}
			}
			set = append(set, pts[fi])
			rks = append(rks, int32(fi))
		}
		add((wi + 1) % n)
		add((wi + n - 1) % n)
		for i := 1; i <= m; i++ {
			if fi := r.SuccessorIndex(w + ring.Point(1)<<(64-uint(i))); fi != wi {
				add(fi)
			}
		}
		for i := 1; i < len(set); i++ {
			p, rk := set[i], rks[i]
			j := i
			for ; j > 0 && w.Dist(set[j-1]) < w.Dist(p); j-- {
				set[j], rks[j] = set[j-1], rks[j-1]
			}
			set[j], rks[j] = p, rk
		}
		rc.nbr[wi], rc.ranks[wi] = set, rks
	}
	return rc
}

// route is greedy Chord routing by a linear scan of the sorted table.
func (rc *refChord) route(srcRank, targetRank, maxHops int) ([]int32, bool) {
	curi := srcRank
	cur, target := rc.r.At(curi), rc.r.At(targetRank)
	out := []int32{int32(curi)}
	for hop := 0; hop < maxHops; hop++ {
		if curi == targetRank {
			return out, true
		}
		goal := cur.Dist(target)
		best := -1
		for k, nb := range rc.nbr[curi] {
			if prog := cur.Dist(nb); prog != 0 && prog <= goal {
				best = k
				break
			}
		}
		if best < 0 {
			return out, false
		}
		cur, curi = rc.nbr[curi][best], int(rc.ranks[curi][best])
		out = append(out, int32(curi))
	}
	return out, curi == targetRank
}

// TestChordMatchesReference pins the CSR table, built with per-level
// cursors, and the guided greedy step to the reference table and linear
// scan: the same neighbors in the same order (the epoch's verification
// draws follow that order) and the same route from every ID.
func TestChordMatchesReference(t *testing.T) {
	rings := map[string]*ring.Ring{
		// Points at both ends of the ring make every level's cursor wrap.
		"edges":     ring.New([]ring.Point{0, 1, 1 << 63, 1<<64 - 1}),
		"clustered": clusteredRing(rand.New(rand.NewSource(73))),
	}
	for _, n := range []int{2, 3, 5, 17, 1000, 16384} {
		rings["uniform"+strconv.Itoa(n)] = testRing(n, int64(n))
	}
	for name, r := range rings {
		c, rc := NewChord(r), newRefChord(r)
		pts := r.Points()
		for wi, w := range pts {
			if got, want := c.Neighbors(w), rc.nbr[wi]; !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(#%d) = %v, want %v", name, wi, got, want)
			}
		}
		n := r.Len()
		rng := rand.New(rand.NewSource(int64(n)))
		var buf []int32
		for si := 0; si < n; si++ {
			ti := rng.Intn(n)
			for _, key := range []ring.Point{ring.Point(rng.Uint64()), pts[ti], pts[ti] + 1, pts[ti] - 1} {
				targetRank := r.SuccessorIndex(key)
				var ok bool
				buf, ok = c.RouteRanks(buf, si, targetRank, key)
				want, wantOK := rc.route(si, targetRank, c.MaxHops())
				if ok != wantOK || !slices.Equal(buf, want) {
					t.Fatalf("%s: route #%d → %v = %v (%v), want %v (%v)", name, si, key, buf, ok, want, wantOK)
				}
			}
		}
	}
}
