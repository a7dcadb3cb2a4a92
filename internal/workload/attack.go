package workload

import (
	"fmt"

	"repro/tinygroups"
)

// The adversarial workloads model the paper's Byzantine adversary
// hammering the serving path: a join flood saturating the identity-minting
// pipeline before each epoch flip, churn concentrated on one victim's key
// range, and an eclipse-style read storm over a clustered arc. Each is a
// pure function of (seed, i), so attack runs replay byte-identically at
// any concurrency.

// pointDist returns the circular ID-space distance between two points —
// the wrap-aware metric the adversary's near-key strategy minimizes.
func pointDist(a, b tinygroups.Point) uint64 {
	d := uint64(a - b)
	if d2 := uint64(b - a); d2 < d {
		d = d2
	}
	return d
}

// joinflood is the JoinFlood generator.
type joinflood struct {
	keys         int
	advanceEvery int
	burst        int
	scope        string
}

// JoinFlood returns the join-flood attack: sustained uniform lookups, but
// in the `burst` positions immediately before each epoch advance (one per
// advanceEvery ops) the workload floods the join path with identity mints
// for adversarial miners — the §IV join spam an epoch boundary must absorb
// while the PoW gate (Lemma 11) does its work. Burst is clamped below the
// period; miner names derive from (seed, i).
func JoinFlood(keys, advanceEvery, burst int) Generator {
	if advanceEvery <= 0 {
		advanceEvery = 200
	}
	if burst <= 0 {
		burst = 16
	}
	if burst >= advanceEvery {
		burst = advanceEvery - 1
	}
	return &joinflood{
		keys: clampKeys(keys), advanceEvery: advanceEvery, burst: burst,
		scope: "loadgen/joinflood",
	}
}

// Name implements Generator.
func (g *joinflood) Name() string { return "join-flood" }

// Op implements Generator. The adversarial miner identity rides in Key.
func (g *joinflood) Op(seed int64, i int) Op {
	phase := i % g.advanceEvery
	if phase == g.advanceEvery-1 {
		return Op{Kind: KindAdvance}
	}
	rng := stream(g.scope, seed, i)
	if phase >= g.advanceEvery-1-g.burst {
		return Op{Kind: KindMint, Key: fmt.Sprintf("adv%016x", rng.Uint64())}
	}
	return Op{Kind: KindLookup, Key: keyOf(rng.Intn(g.keys))}
}

// targetedchurn is the TargetedChurn generator.
type targetedchurn struct {
	keys         int
	advanceEvery int
	pool         int
	victim       tinygroups.Point
	scope        string
}

// TargetedChurn returns the targeted-churn attack: put/lookup pressure
// concentrated on the key range around one victim key, interleaved with
// epoch advances (one per advanceEvery ops) so the attacked range keeps
// re-homing. Key selection mirrors the adversary's near-key placement
// strategy: each op draws `pool` candidate keys and keeps the one whose
// hash point lands closest to the victim's, so the pressure concentrates
// the way an adversary who can discard unwanted IDs concentrates. Even
// indices put (with generated values), odd indices look up — both on the
// targeted range.
func TargetedChurn(keys, advanceEvery, pool int, victim string) Generator {
	if advanceEvery <= 0 {
		advanceEvery = 200
	}
	if pool < 1 {
		pool = 8
	}
	return &targetedchurn{
		keys: clampKeys(keys), advanceEvery: advanceEvery, pool: pool,
		victim: tinygroups.KeyPoint(victim),
		scope:  "loadgen/targetedchurn",
	}
}

// Name implements Generator.
func (g *targetedchurn) Name() string { return "targeted-churn" }

// Op implements Generator.
func (g *targetedchurn) Op(seed int64, i int) Op {
	if i%g.advanceEvery == g.advanceEvery-1 {
		return Op{Kind: KindAdvance}
	}
	rng := stream(g.scope, seed, i)
	best, bestDist := 0, ^uint64(0)
	for c := 0; c < g.pool; c++ {
		k := rng.Intn(g.keys)
		if d := pointDist(tinygroups.KeyPoint(keyOf(k)), g.victim); d < bestDist {
			best, bestDist = k, d
		}
	}
	key := keyOf(best)
	if i%2 == 0 {
		return Op{Kind: KindPut, Key: key, Value: genValue(&rng)}
	}
	return Op{Kind: KindLookup, Key: key}
}

// eclipsestorm is the EclipseStorm generator.
type eclipsestorm struct {
	keys         int
	advanceEvery int
	pool         int
	limit        tinygroups.Point
	scope        string
}

// EclipseStorm returns the eclipse-style read storm: sustained lookups of
// keys whose hash points land in the arc [0, span) of the ID space — the
// §III-B region a Clustered adversary concentrates its IDs in — plus one
// epoch advance per advanceEvery ops so the storm crosses group-graph
// rebuilds. Run it against a daemon placed with the clustered strategy and
// the success-rate column reads out how well majority filtering holds
// inside the attacked arc. Each op draws up to `pool` candidate keys and
// keeps the first inside the arc (falling back to the candidate nearest
// it), keeping the stream a pure function of (seed, i).
func EclipseStorm(keys, advanceEvery, pool int, span float64) Generator {
	if advanceEvery <= 0 {
		advanceEvery = 200
	}
	if pool < 1 {
		pool = 8
	}
	if span <= 0 || span >= 1 { // a whole-ring "arc" is no eclipse
		span = 0.125
	}
	return &eclipsestorm{
		keys: clampKeys(keys), advanceEvery: advanceEvery, pool: pool,
		// 1<<64 is not representable; scale by 2^63 then shift, the
		// ring.FromFloat convention, so span 1 saturates instead of
		// overflowing.
		limit: tinygroups.Point(uint64(span*(1<<63)) << 1),
		scope: "loadgen/eclipsestorm",
	}
}

// Name implements Generator.
func (g *eclipsestorm) Name() string { return "eclipse-storm" }

// Op implements Generator.
func (g *eclipsestorm) Op(seed int64, i int) Op {
	if i%g.advanceEvery == g.advanceEvery-1 {
		return Op{Kind: KindAdvance}
	}
	rng := stream(g.scope, seed, i)
	best, bestDist := 0, ^uint64(0)
	for c := 0; c < g.pool; c++ {
		k := rng.Intn(g.keys)
		p := tinygroups.KeyPoint(keyOf(k))
		if p < g.limit {
			best = k
			break
		}
		if d := uint64(p - g.limit); d < bestDist {
			best, bestDist = k, d
		}
	}
	return Op{Kind: KindLookup, Key: keyOf(best)}
}

// AttackSuite returns the three adversarial workloads — join-flood,
// targeted-churn and eclipse-storm — over a keyspace of the given size
// with one epoch advance per advanceEvery ops. This is the sweep cmd/chaos
// drives over HTTP; experiment e21 runs the same three in process.
func AttackSuite(keys, advanceEvery int) []Generator {
	return []Generator{
		JoinFlood(keys, advanceEvery, 16),
		TargetedChurn(keys, advanceEvery, 8, "victim"),
		EclipseStorm(keys, advanceEvery, 8, 0.125),
	}
}
