package cluster

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/tinygroups"
)

// rangeLo returns the smallest point shard s owns among k shards,
// ceil(s·2^64 / k), derived from the partition's definition rather than
// from shardOf. rangeLo(k, k) is 2^64, which wraps to 0.
func rangeLo(s, k int) uint64 {
	if s == k {
		return 0
	}
	q, r := bits.Div64(uint64(s), 0, uint64(k))
	if r > 0 {
		q++
	}
	return q
}

// TestShardOfPartitions pins that shardOf is a total partition into K
// contiguous ranges whose borders sit exactly at ceil(s·2^64 / K).
func TestShardOfPartitions(t *testing.T) {
	max := tinygroups.Point(^uint64(0))
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		if got := shardOf(0, k); got != 0 {
			t.Fatalf("shardOf(0, %d) = %d", k, got)
		}
		if got := shardOf(max, k); got != k-1 {
			t.Fatalf("shardOf(max, %d) = %d; want %d", k, got, k-1)
		}
		for s := 1; s < k; s++ {
			lo := tinygroups.Point(rangeLo(s, k))
			if got := shardOf(lo, k); got != s {
				t.Fatalf("k=%d: border point %d owned by %d, want %d", k, lo, got, s)
			}
			if got := shardOf(lo-1, k); got != s-1 {
				t.Fatalf("k=%d: point below border %d owned by %d, want %d", k, lo, got, s-1)
			}
		}
	}
}

// TestOwnerOfMatchesKeyPoint pins OwnerOf to the equal split of the ring:
// among k shards, shard s owns the key points in [rangeLo(s, k),
// rangeLo(s+1, k)).
func TestOwnerOfMatchesKeyPoint(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		for i := -1; i < 512; i++ {
			key := ""
			if i >= 0 {
				key = fmt.Sprintf("k%08d", i)
			}
			p, s := uint64(tinygroups.KeyPoint(key)), OwnerOf(key, k)
			if s < 0 || s >= k || p < rangeLo(s, k) || (s+1 < k && p >= rangeLo(s+1, k)) {
				t.Fatalf("OwnerOf(%q, %d) = %d, but its point %#x lies outside [%#x, %#x)",
					key, k, s, p, rangeLo(s, k), rangeLo(s+1, k))
			}
		}
	}
}
