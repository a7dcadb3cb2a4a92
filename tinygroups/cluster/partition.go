// Package cluster partitions the tinygroups ID ring across shard daemons
// and routes requests to the shard that owns each key.
//
// # Partitioning
//
// The ring [0, 2^64) splits into K contiguous equal ranges, one per shard:
// shard i owns the points p with floor(p·K / 2^64) = i. Placement is a
// pure function of the key — no lookup tables, no rebalancing state — so
// every router instance, every shard, and every test derives the same
// owner independently.
//
// # Determinism
//
// Every shard runs the full deterministic construction on the same
// (n, seed): the epoch generations — and therefore lookup, get, and mint
// answers — are byte-identical replicas, which is what lets a router
// forward a key to exactly one shard and still return the answer the
// single-process system would give. What the cluster partitions is the
// serving plane: each shard answers only for its ring range, holds only
// its range's stored values, and the router scatter-gathers batches
// across ranges. The coordinated two-phase epoch advance (Router.Advance)
// keeps the replicas in lockstep: all shards build the upcoming
// generation first, and flip together only once every build succeeded —
// an abort leaves the old generation live everywhere, and the epoch
// layer's rng rewind makes the retried build byte-identical on every
// shard.
package cluster

import (
	"math/bits"

	"repro/tinygroups"
)

// ShardOf returns the index of the shard that owns point p in a cluster
// of `shards` shards: floor(p·shards / 2^64), the contiguous equal
// partition of the ring. It is a pure function — every caller everywhere
// agrees on the owner. shards must be positive; a one-shard cluster owns
// everything.
func ShardOf(p tinygroups.Point, shards int) int {
	if shards <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(uint64(p), uint64(shards))
	return int(hi)
}

// OwnerOf returns the index of the shard that owns key, resolving the
// key's ring point with the same hash every keyed System operation uses.
func OwnerOf(key string, shards int) int {
	return ShardOf(tinygroups.KeyPoint(key), shards)
}
