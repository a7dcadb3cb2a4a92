package groups

import (
	"math/rand"
	"repro/internal/ring"
	"testing"
)

func TestQuarantineExpelsActiveMisbehavers(t *testing.T) {
	g, _ := buildTest(512, 0.10, 91)
	q := NewQuarantine(g, 2)
	rng := rand.New(rand.NewSource(92))
	before := g.ResidentBadInBlue()
	if before == 0 {
		t.Skip("no resident bad members at this seed")
	}
	// Bad members misbehaving on every operation are expelled after
	// Threshold sweeps.
	for i := 0; i < 4; i++ {
		q.Sweep(1.0, rng)
	}
	after := g.ResidentBadInBlue()
	if after != 0 {
		t.Errorf("always-misbehaving members not fully expelled: %d → %d", before, after)
	}
	if q.Expelled == 0 {
		t.Error("no expulsions recorded")
	}
}

func TestQuarantineStealthyMembersSurvive(t *testing.T) {
	g, _ := buildTest(512, 0.10, 93)
	q := NewQuarantine(g, 2)
	rng := rand.New(rand.NewSource(94))
	before := g.ResidentBadInBlue()
	for i := 0; i < 4; i++ {
		q.Sweep(0.0, rng) // perfectly stealthy adversary
	}
	if g.ResidentBadInBlue() != before || q.Expelled != 0 {
		t.Error("stealthy (never-misbehaving) members must not be expelled")
	}
}

func TestQuarantineCannotRedeemRedGroups(t *testing.T) {
	g, _ := buildTest(256, 0.30, 95)
	var redCount int
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		if grp.Red() {
			redCount++
		}
	}
	if redCount == 0 {
		t.Skip("no red groups at this seed")
	}
	q := NewQuarantine(g, 1)
	rng := rand.New(rand.NewSource(96))
	for i := 0; i < 3; i++ {
		q.Sweep(1.0, rng)
	}
	after := 0
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		if grp.Red() {
			after++
		}
	}
	if after < redCount {
		t.Errorf("quarantine redeemed red groups: %d → %d", redCount, after)
	}
}

func TestQuarantineNeverFlipsBlueToBadByMajority(t *testing.T) {
	g, _ := buildTest(512, 0.15, 97)
	blueBefore := map[uint64]bool{}
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		if !grp.Red() {
			blueBefore[uint64(grp.Leader)] = true
		}
	}
	q := NewQuarantine(g, 1)
	rng := rand.New(rand.NewSource(98))
	q.Sweep(1.0, rng)
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		if blueBefore[uint64(grp.Leader)] && grp.Bad && 2*grp.BadCount() < grp.Size() {
			t.Fatal("expulsion flipped a blue group bad without majority loss")
		}
	}
}

func TestQuarantineHardensAgainstDepartures(t *testing.T) {
	// The measurable benefit: purging resident bad members gives blue
	// groups more slack against later good-member departures.
	run := func(quarantine bool) int {
		g, pl := buildTest(1024, 0.12, 99)
		if quarantine {
			q := NewQuarantine(g, 1)
			rng := rand.New(rand.NewSource(100))
			for i := 0; i < 2; i++ {
				q.Sweep(1.0, rng)
			}
		}
		rng := rand.New(rand.NewSource(101))
		departed := map[uint64]bool{}
		dep := map[ringPoint]bool{}
		for _, id := range pl.Good {
			if rng.Float64() < 0.30 {
				departed[uint64(id)] = true
				dep[id] = true
			}
		}
		rep := g.RemoveMembers(dep)
		return rep.LostMajority
	}
	with := run(true)
	without := run(false)
	if with > without {
		t.Errorf("quarantine should reduce majority losses under departures: with=%d without=%d", with, without)
	}
}

type ringPoint = ring.Point
