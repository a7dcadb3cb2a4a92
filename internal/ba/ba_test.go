package ba

import (
	"math/rand"
	"testing"
)

func unanimous(n, v int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = v
	}
	return p
}

func TestAgreementNoFaults(t *testing.T) {
	for _, v := range []int{0, 1} {
		res := Run(9, 2, unanimous(9, v), nil, "")
		if !res.Agreed {
			t.Fatalf("no-fault run must agree, decisions=%v", res.Decisions)
		}
		if res.Value != v {
			t.Fatalf("validity: all started with %d, decided %d", v, res.Value)
		}
	}
}

func TestValidityUnderEquivocators(t *testing.T) {
	// All honest nodes start with the same value; Byzantine members must
	// not be able to change the outcome (validity).
	const n, tFaults = 13, 3
	byz := map[int]bool{0: true, 5: true, 9: true}
	prefs := unanimous(n, 1)
	res := Run(n, tFaults, prefs, byz, "equivocate")
	if !res.Agreed {
		t.Fatalf("must agree, decisions=%v", res.Decisions)
	}
	if res.Value != 1 {
		t.Fatalf("validity violated: honest unanimous 1, decided %d", res.Value)
	}
}

func TestAgreementMixedInputsEquivocators(t *testing.T) {
	// Mixed inputs: any common decision is fine, agreement is mandatory.
	const n, tFaults = 13, 3
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		byz := map[int]bool{}
		for len(byz) < tFaults {
			byz[rng.Intn(n)] = true
		}
		prefs := make([]int, n)
		for i := range prefs {
			prefs[i] = rng.Intn(2)
		}
		res := Run(n, tFaults, prefs, byz, "equivocate")
		if !res.Agreed {
			t.Fatalf("trial %d: agreement violated, decisions=%v byz=%v", trial, res.Decisions, byz)
		}
		if res.Value != 0 && res.Value != 1 {
			t.Fatalf("trial %d: decided junk %d", trial, res.Value)
		}
	}
}

func TestAgreementSilentFaults(t *testing.T) {
	const n, tFaults = 9, 2
	byz := map[int]bool{1: true, 7: true}
	prefs := make([]int, n)
	for i := range prefs {
		prefs[i] = i % 2
	}
	res := Run(n, tFaults, prefs, byz, "silent")
	if !res.Agreed {
		t.Fatalf("silent faults: agreement violated, decisions=%v", res.Decisions)
	}
}

func TestByzantineKingPhaseSurvived(t *testing.T) {
	// Make low-index nodes (the early kings) Byzantine: the protocol must
	// still converge in a later honest-king phase.
	const n, tFaults = 13, 3
	byz := map[int]bool{0: true, 1: true, 2: true}
	prefs := make([]int, n)
	for i := range prefs {
		prefs[i] = i % 2
	}
	res := Run(n, tFaults, prefs, byz, "equivocate")
	if !res.Agreed {
		t.Fatalf("byzantine early kings: decisions=%v", res.Decisions)
	}
}

func TestRoundsFormula(t *testing.T) {
	if rounds(0) != 3 || rounds(3) != 9 {
		t.Errorf("Rounds: got %d and %d", rounds(0), rounds(3))
	}
}

func TestGroupSizedAgreementSweep(t *testing.T) {
	// Paper-typical group sizes (ln ln n scale) with t = ⌊(n−1)/4⌋ faults.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 8, 12, 16} {
		tFaults := (n - 1) / 4
		for trial := 0; trial < 10; trial++ {
			byz := map[int]bool{}
			for len(byz) < tFaults {
				byz[rng.Intn(n)] = true
			}
			prefs := make([]int, n)
			for i := range prefs {
				prefs[i] = rng.Intn(2)
			}
			res := Run(n, tFaults, prefs, byz, "equivocate")
			if !res.Agreed {
				t.Fatalf("n=%d t=%d trial=%d: decisions=%v", n, tFaults, trial, res.Decisions)
			}
		}
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	// Group communication is Θ(|G|²) per round (the cost the paper's §I
	// attributes to group operations); total ≈ rounds·n².
	res := Run(10, 2, unanimous(10, 0), nil, "")
	maxMsgs := int64(rounds(2)) * 10 * 10
	if res.Messages > maxMsgs {
		t.Errorf("messages = %d, want ≤ %d", res.Messages, maxMsgs)
	}
	if res.Messages < int64(10*10) {
		t.Errorf("messages = %d suspiciously low", res.Messages)
	}
}
