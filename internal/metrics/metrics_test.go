package metrics

import (
	"math/rand"
	"strings"
	"testing"
)

func TestChiSquareAcceptsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[rng.Intn(16)]++
	}
	stat, ok := ChiSquareUniform(counts)
	if !ok {
		t.Errorf("uniform sample rejected, stat=%v", stat)
	}
}

func TestChiSquareRejectsSkewed(t *testing.T) {
	counts := make([]int, 16)
	counts[0] = 1000
	for i := 1; i < 16; i++ {
		counts[i] = 100
	}
	if _, ok := ChiSquareUniform(counts); ok {
		t.Error("heavily skewed sample accepted")
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	if _, ok := ChiSquareUniform(nil); !ok {
		t.Error("empty counts should pass trivially")
	}
	if _, ok := ChiSquareUniform([]int{0, 0, 0}); !ok {
		t.Error("all-zero counts should pass trivially")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"n", "rate"}}
	tab.Append("1024", "0.01")
	tab.Append("65536", "0.001")
	out := tab.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "65536") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}
