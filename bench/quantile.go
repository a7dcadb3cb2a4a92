package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending, non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median sorts a copy of v and returns its median; 0 for empty input (the
// results document is JSON, which has no NaN).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQ is the highest quantile, capped at 0.99, that still has at least
// ten samples beyond it; with fewer than twenty samples it is the maximum.
func tailQ(n int) float64 {
	if n < 20 {
		return 1
	}
	return math.Min(0.99, 1-10/float64(n))
}

// stat summarises per-slice (or per-run) readings of one metric: the median
// is the reported value, min and max its spread, n the samples behind it.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// statOf reduces readings to a stat carrying n as its sample count.
func statOf(readings []float64, n int) stat {
	if len(readings) == 0 {
		return stat{}
	}
	s := append([]float64(nil), readings...)
	sort.Float64s(s)
	return stat{Value: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: n}
}

// iqrShare is the distance between the first and third quartile of v as a
// share of its median, using the same exclusive method as Python's
// statistics.quantiles(v, n=4). It needs at least two values.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		m := len(s)
		pos := float64(k*(m+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
