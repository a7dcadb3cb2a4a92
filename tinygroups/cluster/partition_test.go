package cluster

import (
	"math/bits"
	"testing"

	"repro/tinygroups"
)

// rangeLo returns the smallest point shard s owns among k shards,
// ceil(s·2^64 / k), derived from the partition's definition rather than
// from ShardOf. rangeLo(k, k) is 2^64, which wraps to 0.
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

// TestShardOfPartitions pins that ShardOf is a total partition into K
// contiguous ranges whose borders sit exactly at ceil(s·2^64 / K).
func TestShardOfPartitions(t *testing.T) {
	max := tinygroups.Point(^uint64(0))
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		if got := ShardOf(0, k); got != 0 {
			t.Fatalf("ShardOf(0, %d) = %d", k, got)
		}
		if got := ShardOf(max, k); got != k-1 {
			t.Fatalf("ShardOf(max, %d) = %d; want %d", k, got, k-1)
		}
		for s := 1; s < k; s++ {
			lo := tinygroups.Point(rangeLo(s, k))
			if got := ShardOf(lo, k); got != s {
				t.Fatalf("k=%d: border point %d owned by %d, want %d", k, lo, got, s)
			}
			if got := ShardOf(lo-1, k); got != s-1 {
				t.Fatalf("k=%d: point below border %d owned by %d, want %d", k, lo, got, s-1)
			}
		}
	}
}

// TestShardOfBalance pins that the equal partition really is equal: range
// sizes differ by at most one point.
func TestShardOfBalance(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8} {
		var minSz, maxSz uint64
		for s := 0; s < k; s++ {
			sz := rangeLo(s+1, k) - rangeLo(s, k)
			if s == 0 || sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("k=%d: range sizes differ by %d", k, maxSz-minSz)
		}
	}
}

// TestOwnerOfMatchesKeyPoint pins OwnerOf against the key-hash convention.
func TestOwnerOfMatchesKeyPoint(t *testing.T) {
	for _, key := range []string{"", "a", "k00000042", "the-quick-brown-fox"} {
		for _, k := range []int{1, 2, 4} {
			if got, want := OwnerOf(key, k), ShardOf(tinygroups.KeyPoint(key), k); got != want {
				t.Fatalf("OwnerOf(%q, %d) = %d, want %d", key, k, got, want)
			}
		}
	}
}
