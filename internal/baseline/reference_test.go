package baseline

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

// referenceGrid lists the RunCuckoo configs whose results are pinned. Every
// k-region count N/K is a power of two.
func referenceGrid() []CuckooConfig {
	var grid []CuckooConfig
	for _, n := range []int{256, 1024, 8192} {
		events := 2000
		if n == 8192 {
			events = 1000
		}
		for _, k := range []int{0, 4, 8} {
			for _, g := range []int{8, 16, 64} {
				for _, beta := range []float64{0, 0.002, 0.02, 0.05} {
					for _, targeted := range []bool{false, true} {
						for _, seed := range []int64{1, 2} {
							grid = append(grid, CuckooConfig{
								N: n, Beta: beta, K: k, GroupSize: g,
								Events: events, Targeted: targeted, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return grid
}

// referenceLine is the digested form of one grid result.
func referenceLine(c CuckooConfig, r CuckooResult) string {
	return fmt.Sprintf("N=%d K=%d G=%d beta=%g events=%d targeted=%t seed=%d: survived=%t at=%d maxBad=%#x",
		c.N, c.K, c.GroupSize, c.Beta, c.Events, c.Targeted, c.Seed,
		r.Survived, r.SurvivedEvents, math.Float64bits(r.MaxBadFraction))
}

// TestCuckooMatchesReference pins RunCuckoo over referenceGrid to the
// results of the sorted-ring implementation the k-region buckets replaced:
// a SHA-256 over every result line, plus a few literal lines that name a
// moved cell when the digest alone would not.
func TestCuckooMatchesReference(t *testing.T) {
	const digest = "ce52f23348a9d8966382ada43379633add949c6e9129b68c76bbda67f7642ed8"
	want := []string{
		"N=256 K=0 G=64 beta=0.05 events=2000 targeted=false seed=2: survived=true at=2000 maxBad=0x3fc1a7b9611a7b96",
		"N=256 K=4 G=16 beta=0.02 events=2000 targeted=true seed=1: survived=false at=79 maxBad=0x3ff0000000000000",
		"N=1024 K=4 G=16 beta=0.05 events=2000 targeted=true seed=1: survived=false at=49 maxBad=0x3fe0000000000000",
		"N=1024 K=8 G=8 beta=0.02 events=2000 targeted=false seed=1: survived=false at=0 maxBad=0x3ff0000000000000",
		"N=8192 K=4 G=64 beta=0.02 events=1000 targeted=true seed=1: survived=true at=1000 maxBad=0x3fc386822b63cbef",
	}
	got := map[string]bool{}
	h := sha256.New()
	for _, c := range referenceGrid() {
		line := referenceLine(c, RunCuckoo(c))
		fmt.Fprintln(h, line)
		got[line] = true
	}
	for _, line := range want {
		if !got[line] {
			t.Errorf("no grid result %q", line)
		}
	}
	if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != digest {
		t.Errorf("results digest %s, want %s", sum, digest)
	}
}
