package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// stubApp returns an app with a two-scenario stub registry that records
// the Options each run received.
func stubApp(t *testing.T, got *[]experiments.Options) *app {
	t.Helper()
	reg := experiments.NewRegistry()
	mk := func(id, title string) experiments.Experiment {
		return experiments.Experiment{
			ID: id, Title: title,
			Stream: func(ctx context.Context, o experiments.Options, h experiments.Emitter) error {
				*got = append(*got, o)
				h.Header("k", "v")
				h.Row(id, "1")
				h.Note("stub")
				return nil
			},
		}
	}
	for _, s := range []experiments.Experiment{mk("x1", "first stub"), mk("x2", "second stub")} {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return &app{stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{}, registry: reg}
}

func run(a *app, args ...string) int {
	return a.run(context.Background(), args)
}

func TestListPrintsRegistry(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a, "list"); code != 0 {
		t.Fatalf("list exit code %d", code)
	}
	out := a.stdout.(*bytes.Buffer).String()
	for _, want := range []string{"x1", "first stub", "x2", "second stub"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
	if len(got) != 0 {
		t.Errorf("list ran %d scenarios", len(got))
	}
}

func TestAllRunsEveryScenario(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a, "all"); code != 0 {
		t.Fatalf("all exit code %d", code)
	}
	if len(got) != 2 {
		t.Fatalf("all ran %d scenarios, want 2", len(got))
	}
	out := a.stdout.(*bytes.Buffer).String()
	for _, want := range []string{"== x1", "== x2", "total wall-clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("all output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a, "x1", "nope"); code != 2 {
		t.Fatalf("unknown id exit code %d, want 2", code)
	}
	errOut := a.stderr.(*bytes.Buffer).String()
	if !strings.Contains(errOut, `unknown scenario "nope"`) {
		t.Errorf("stderr missing unknown-scenario message: %s", errOut)
	}
	if len(got) != 0 {
		t.Errorf("ran %d scenarios before rejecting the bad id", len(got))
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a); code != 2 {
		t.Fatalf("no-args exit code %d, want 2", code)
	}
	if !strings.Contains(a.stderr.(*bytes.Buffer).String(), "usage:") {
		t.Error("usage not printed")
	}
}

func TestBadFlagFails(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a, "-bogus", "x1"); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
}

func TestFlagsReachScenarios(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a, "-quick", "-seed", "42", "-parallel", "3", "-trials", "5", "x2"); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if len(got) != 1 {
		t.Fatalf("ran %d scenarios, want 1", len(got))
	}
	want := experiments.Options{Quick: true, Seed: 42, Parallel: 3, Trials: 5}
	if got[0] != want {
		t.Errorf("scenario received %+v, want %+v", got[0], want)
	}
}

// TestStreamMode prints rows live: banner first, then header, rows and
// notes.
func TestStreamMode(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	if code := run(a, "-stream", "x1"); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	out := a.stdout.(*bytes.Buffer).String()
	for _, want := range []string{"== x1: first stub", "k", "x1", "note: stub"} {
		if !strings.Contains(out, want) {
			t.Errorf("stream output missing %q:\n%s", want, out)
		}
	}
}

// TestCancelledContextExits: a cancelled context stops the run with the
// interrupt exit code.
func TestCancelledContextExits(t *testing.T) {
	var got []experiments.Options
	a := stubApp(t, &got)
	reg := experiments.NewRegistry()
	if err := reg.Register(experiments.Experiment{
		ID: "slow", Title: "ctx-aware stub",
		Stream: func(ctx context.Context, _ experiments.Options, _ experiments.Emitter) error {
			return ctx.Err()
		},
	}); err != nil {
		t.Fatal(err)
	}
	a.registry = reg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if code := a.run(ctx, []string{"slow"}); code != 130 {
		t.Fatalf("cancelled run exit code %d, want 130", code)
	}
	if !strings.Contains(a.stderr.(*bytes.Buffer).String(), "cancelled") {
		t.Error("cancellation not reported")
	}
}

// TestRealRegistryQuickRun drives one cheap real scenario end to end
// through the CLI layer, in both output modes.
func TestRealRegistryQuickRun(t *testing.T) {
	for _, mode := range [][]string{{"-quick", "e13"}, {"-quick", "-stream", "e13"}} {
		a := &app{stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{}, registry: experiments.Default()}
		if code := run(a, mode...); code != 0 {
			t.Fatalf("%v: exit code %d, stderr: %s", mode, code, a.stderr.(*bytes.Buffer).String())
		}
		out := a.stdout.(*bytes.Buffer).String()
		if !strings.Contains(out, "== e13: Byzantine agreement inside groups") {
			t.Errorf("%v: missing scenario banner:\n%s", mode, out)
		}
		if !strings.Contains(out, "behavior") {
			t.Errorf("%v: missing table header:\n%s", mode, out)
		}
	}
}

// TestRealRegistryListMatchesAll asserts the registry the CLI ships is the
// full e1..e21 set.
func TestRealRegistryListMatchesAll(t *testing.T) {
	a := &app{stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{}, registry: experiments.Default()}
	if code := run(a, "list"); code != 0 {
		t.Fatalf("list exit code %d", code)
	}
	out := a.stdout.(*bytes.Buffer).String()
	all := experiments.Default().List()
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != len(all) {
		t.Errorf("list printed %d lines, registry has %d scenarios", n, len(all))
	}
	for _, s := range all {
		if !strings.Contains(out, s.ID) {
			t.Errorf("list missing %s", s.ID)
		}
	}
}
