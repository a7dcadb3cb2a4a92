package overlay

import (
	"math/rand"

	"repro/internal/ring"
)

// Properties summarizes the empirical P1–P4 measurements of a graph under a
// sample of random searches; see Measure.
type Properties struct {
	N             int     // number of IDs
	Samples       int     // searches performed
	FailedRoutes  int     // routes that did not terminate (P1 violations)
	MeanHops      float64 // average route length D (P1)
	MaxHopsSeen   int     // longest observed route
	MaxLoad       float64 // max fraction of key space owned by one ID × N (P2; ≈1+δ'' when balanced)
	Congestion    float64 // max over IDs of traversal probability (P4)
	CongestionXN  float64 // Congestion × N / log^c-free view: Congestion·N, the paper's log^c n factor
	MeanDegree    float64 // average |S_w| over sampled IDs (P3 / state cost)
	MaxDegreeSeen int
}

// Measure runs `samples` searches from u.a.r. source IDs to u.a.r. keys and
// returns the empirical P1–P4 statistics. Degree statistics are measured on
// min(N, 512) sampled IDs.
func Measure(g Graph, samples int, rng *rand.Rand) Properties {
	r := g.Ring()
	n := r.Len()
	p := Properties{N: n, Samples: samples}
	traversed := make([]int, n) // by ring rank
	totalHops := 0
	var route []int32
	for i := 0; i < samples; i++ {
		si := rng.Intn(n)
		key := ring.Point(rng.Uint64())
		var ok bool
		route, ok = g.RouteRanks(route, si, r.SuccessorIndex(key), key)
		if !ok {
			p.FailedRoutes++
			continue
		}
		totalHops += len(route) - 1
		if len(route)-1 > p.MaxHopsSeen {
			p.MaxHopsSeen = len(route) - 1
		}
		for _, ri := range route {
			traversed[ri]++
		}
	}
	okRoutes := samples - p.FailedRoutes
	if okRoutes > 0 {
		p.MeanHops = float64(totalHops) / float64(okRoutes)
	}
	maxTrav := 0
	for _, c := range traversed {
		if c > maxTrav {
			maxTrav = c
		}
	}
	if okRoutes > 0 {
		p.Congestion = float64(maxTrav) / float64(okRoutes)
		p.CongestionXN = p.Congestion * float64(n)
	}
	// P2: max normalized load over all IDs.
	for _, id := range r.Points() {
		if l := r.OwnedArc(id) * float64(n); l > p.MaxLoad {
			p.MaxLoad = l
		}
	}
	// P3: degree sample.
	degSamples := n
	if degSamples > 512 {
		degSamples = 512
	}
	sumDeg := 0
	for i := 0; i < degSamples; i++ {
		d := len(g.Neighbors(r.At(rng.Intn(n))))
		sumDeg += d
		if d > p.MaxDegreeSeen {
			p.MaxDegreeSeen = d
		}
	}
	p.MeanDegree = float64(sumDeg) / float64(degSamples)
	return p
}

// UniformRing generates n u.a.r. IDs, the honest-placement assumption of
// §I-C.
func UniformRing(n int, rng *rand.Rand) *ring.Ring {
	pts := make([]ring.Point, n)
	for i := range pts {
		pts[i] = ring.Point(rng.Uint64())
	}
	return ring.New(pts)
}
