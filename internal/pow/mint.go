package pow

import (
	"math"
	"math/rand"

	"repro/internal/ring"
)

// mintCount samples the number of puzzle solutions found by an actor with
// `attempts` total hash attempts at per-attempt success probability tau.
// This is exactly the Binomial(attempts, tau) distribution that the
// Lemma 11 Chernoff bound is taken over; sampling it (instead of hashing
// `attempts` times) is what makes large sweeps affordable.
func mintCount(attempts int64, tau float64, rng *rand.Rand) int {
	if attempts <= 0 || tau <= 0 {
		return 0
	}
	if tau >= 1 {
		return int(attempts)
	}
	mean := float64(attempts) * tau
	variance := mean * (1 - tau)
	switch {
	case variance > 100:
		// Normal approximation with continuity correction.
		k := int(math.Round(rng.NormFloat64()*math.Sqrt(variance) + mean))
		if k < 0 {
			k = 0
		}
		if int64(k) > attempts {
			k = int(attempts)
		}
		return k
	case float64(attempts) > 1000 && tau < 0.05:
		return poisson(mean, rng)
	default:
		return binomial(attempts, tau, rng)
	}
}

// binomial samples Binomial(n, p) exactly in O(1 + n·p) expected time —
// inverse transform below mean 10, the BTRS transformed-rejection sampler
// of Hörmann (1993) above — replacing the former O(n) Bernoulli loop,
// which made small-attempts sweeps (E6/E11 grids) linear in hash attempts.
func binomial(n int64, p float64, rng *rand.Rand) int {
	if p > 0.5 {
		// Complement: keeps the working mean ≤ n/2 so both samplers stay in
		// their efficient regime.
		return int(n) - binomial(n, 1-p, rng)
	}
	nf := float64(n)
	if nf*p < 10 {
		// Inverse transform via the recursive pdf ratio
		// f(k+1)/f(k) = (n−k)/(k+1) · p/(1−p).
		s := p / (1 - p)
		a := (nf + 1) * s
		r := math.Exp(nf * math.Log1p(-p)) // (1-p)^n; mean < 10 keeps it ≥ e^-20
		u := rng.Float64()
		k := 0
		for u > r && int64(k) < n {
			u -= r
			k++
			r *= a/float64(k) - s
		}
		return k
	}
	return btrs(n, p, rng)
}

// btrs is Hörmann's BTRS rejection sampler for Binomial(n, p) with
// p ≤ 1/2 and n·p ≥ 10: a triangle-rectangle majorizing hat over the
// transformed binomial, with a squeeze that accepts ~86% of proposals
// without evaluating the density. Expected draws are O(1) regardless of n.
func btrs(n int64, p float64, rng *rand.Rand) int {
	nf := float64(n)
	spq := math.Sqrt(nf * p * (1 - p))
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	r := p / (1 - p)
	alpha := (2.83 + 5.1/b) * spq
	m := math.Floor((nf + 1) * p) // the mode
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(kf) // squeeze acceptance
		}
		// Full acceptance test against the log-density ratio f(k)/f(m),
		// with Stirling-series tail corrections for the factorials.
		lhs := math.Log(v * alpha / (a/(us*us) + b))
		rhs := (m+0.5)*math.Log((m+1)/(r*(nf-m+1))) +
			(nf+1)*math.Log((nf-m+1)/(nf-kf+1)) +
			(kf+0.5)*math.Log(r*(nf-kf+1)/(kf+1)) +
			stirlingTail(m) + stirlingTail(nf-m) - stirlingTail(kf) - stirlingTail(nf-kf)
		if lhs <= rhs {
			return int(kf)
		}
	}
}

// stirlingTail returns the Stirling-series remainder
// ln(k!) − (k+½)ln(k+1) + (k+1) − ½ln(2π), tabulated for small k.
func stirlingTail(k float64) float64 {
	if k < 10 {
		return [10]float64{
			0.0810614667953272, 0.0413406959554092, 0.0276779256849983,
			0.02079067210376509, 0.0166446911898211, 0.0138761288230707,
			0.0118967099458917, 0.0104112652619720, 0.00925546218271273,
			0.00833056343336287,
		}[int(k)]
	}
	kp1 := k + 1
	kp1sq := kp1 * kp1
	return (1.0/12 - (1.0/360-1.0/1260/kp1sq)/kp1sq) / kp1
}

// poisson samples Poisson(λ) (Knuth's method for small λ, normal
// approximation above 500).
func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		k := int(math.Round(rng.NormFloat64()*math.Sqrt(lambda) + lambda))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// mintIDs returns `count` u.a.r. IDs — by the two-hash-composition argument
// (Lemma 11), every puzzle solution yields an ID uniform in [0,1),
// regardless of who solved it.
func mintIDs(count int, rng *rand.Rand) []ring.Point {
	ids := make([]ring.Point, count)
	for i := range ids {
		ids[i] = ring.Point(rng.Uint64())
	}
	return ids
}

// EpochMint models one epoch of minting (§IV-A): every good participant
// computes for (1±ε)T/2 steps at unit power and keeps its first solution;
// the adversary spends βn power for `advSteps` steps and keeps everything.
type EpochMint struct {
	GoodIDs []ring.Point // one fresh ID per good participant that solved in time
	BadIDs  []ring.Point // all adversary solutions
	// GoodMissed counts good participants whose puzzle took longer than the
	// window (they sit out one epoch; the paper's (1±ε) slack).
	GoodMissed int
}

// RunEpochMint samples an epoch. nGood is the number of good participants,
// advPower the adversary's total hash attempts over its window, tau the
// per-attempt success probability, goodSteps the length of the honest
// solving window.
func RunEpochMint(nGood int, goodSteps int64, advPower int64, tau float64, rng *rand.Rand) EpochMint {
	var m EpochMint
	for i := 0; i < nGood; i++ {
		if mintCount(goodSteps, tau, rng) > 0 {
			m.GoodIDs = append(m.GoodIDs, ring.Point(rng.Uint64()))
		} else {
			m.GoodMissed++
		}
	}
	m.BadIDs = mintIDs(mintCount(advPower, tau, rng), rng)
	return m
}
