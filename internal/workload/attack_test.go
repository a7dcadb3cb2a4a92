package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/tinygroups"
)

// TestAttackGeneratorDeterminism checks the pure-(seed, i) contract of the
// adversarial workloads and of the uniform stream cmd/chaos follows them
// with: streams must replay byte-identically and differ across seeds.
func TestAttackGeneratorDeterminism(t *testing.T) {
	for _, g := range append(AttackSuite(256, 50), Uniform(256)) {
		t.Run(g.Name(), func(t *testing.T) {
			var differs bool
			for i := 0; i < 200; i++ {
				a, b := g.Op(1, i), g.Op(1, i)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("op %d not reproducible: %+v vs %+v", i, a, b)
				}
				if !reflect.DeepEqual(g.Op(1, i), g.Op(2, i)) {
					differs = true
				}
			}
			if !differs {
				t.Fatal("seeds 1 and 2 generated identical 200-op streams")
			}
		})
	}
}

// TestAttackGeneratorShapes spot-checks each attack's pressure pattern: the
// join-flood burst schedule, targeted-churn's concentration around the
// victim, and eclipse-storm's concentration inside the clustered arc — plus
// the uniform baseline's spread, which the attacks' concentration is
// measured against.
func TestAttackGeneratorShapes(t *testing.T) {
	const keys, ops = 256, 4000

	t.Run("uniform", func(t *testing.T) {
		g := Uniform(keys)
		seen := map[string]bool{}
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			if op.Kind != KindLookup {
				t.Fatalf("op %d: kind %v, want lookup", i, op.Kind)
			}
			seen[op.Key] = true
		}
		if len(seen) < keys*9/10 {
			t.Fatalf("uniform hit only %d/%d keys over %d ops", len(seen), keys, ops)
		}
	})

	t.Run("join-flood", func(t *testing.T) {
		const every, burst = 40, 8
		g := JoinFlood(keys, every, burst)
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			phase := i % every
			switch {
			case phase == every-1:
				if op.Kind != KindAdvance {
					t.Fatalf("op %d: kind %v, want advance", i, op.Kind)
				}
			case phase >= every-1-burst:
				if op.Kind != KindMint || !strings.HasPrefix(op.Key, "adv") {
					t.Fatalf("op %d: kind %v key %q, want adversarial mint in the burst window", i, op.Kind, op.Key)
				}
			default:
				if op.Kind != KindLookup {
					t.Fatalf("op %d: kind %v, want lookup outside the burst", i, op.Kind)
				}
			}
		}
	})

	t.Run("targeted-churn", func(t *testing.T) {
		const every = 50
		g := TargetedChurn(keys, every, 8, "victim")
		victim := tinygroups.KeyPoint("victim")
		var sumDist, n float64
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			if i%every == every-1 {
				if op.Kind != KindAdvance {
					t.Fatalf("op %d: kind %v, want advance", i, op.Kind)
				}
				continue
			}
			want := KindLookup
			if i%2 == 0 {
				want = KindPut
			}
			if op.Kind != want {
				t.Fatalf("op %d: kind %v, want %v", i, op.Kind, want)
			}
			sumDist += float64(pointDist(tinygroups.KeyPoint(op.Key), victim))
			n++
		}
		// A uniform draw averages 2^62 from the victim; keeping the best
		// of 8 candidates must concentrate well below half that.
		if mean := sumDist / n; mean > float64(uint64(1)<<61) {
			t.Fatalf("mean victim distance %.3g, want < 2^61 (no concentration)", mean)
		}
	})

	t.Run("eclipse-storm", func(t *testing.T) {
		const every, span = 50, 0.125
		g := EclipseStorm(keys, every, 8, span)
		limit := tinygroups.Point(uint64(span*(1<<63)) << 1)
		inArc, n := 0, 0
		for i := 0; i < ops; i++ {
			op := g.Op(1, i)
			if i%every == every-1 {
				if op.Kind != KindAdvance {
					t.Fatalf("op %d: kind %v, want advance", i, op.Kind)
				}
				continue
			}
			if op.Kind != KindLookup {
				t.Fatalf("op %d: kind %v, want lookup", i, op.Kind)
			}
			if tinygroups.KeyPoint(op.Key) < limit {
				inArc++
			}
			n++
		}
		// Uniform traffic would land span ≈ 12.5% of reads in the arc;
		// best-of-8 selection must concentrate far beyond that.
		if frac := float64(inArc) / float64(n); frac < 0.4 {
			t.Fatalf("in-arc fraction %.3f, want ≥ 0.4 (uniform is %.3f)", frac, span)
		}
	})
}
