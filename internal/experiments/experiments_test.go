package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// checks the structural contract: non-empty table, consistent column
// counts, notes present.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Default().List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(Options{Quick: true, Seed: 1})
			if res.ID != e.ID {
				t.Errorf("result ID %q != experiment ID %q", res.ID, e.ID)
			}
			if res.Table == nil || len(res.Table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for i, row := range res.Table.Rows {
				if len(row) != len(res.Table.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(res.Table.Header))
				}
			}
			if len(res.Notes) == 0 {
				t.Error("experiment has no interpretation notes")
			}
			if !strings.Contains(res.Table.String(), res.Table.Header[0]) {
				t.Error("table failed to render")
			}
		})
	}
}

// TestDefaultRegistryHasAllExperiments: the default registry lists
// e1..e21 in order, each with a title.
func TestDefaultRegistryHasAllExperiments(t *testing.T) {
	list := Default().List()
	if len(list) != 21 {
		t.Fatalf("default registry has %d experiments, want 21", len(list))
	}
	for i, e := range list {
		if want := "e" + strconv.Itoa(i+1); e.ID != want {
			t.Errorf("position %d holds %s, want %s", i, e.ID, want)
		}
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
}

// TestLookupFindsAll: every listed experiment resolves by ID, and unknown
// IDs do not.
func TestLookupFindsAll(t *testing.T) {
	reg := Default()
	for _, e := range reg.List() {
		got, ok := reg.Lookup(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("Lookup(%q) failed", e.ID)
		}
	}
	if _, ok := reg.Lookup("e99"); ok {
		t.Error("Lookup must reject unknown IDs")
	}
}

// TestE1ShapeHolds spot-checks the headline claim in quick mode: the static
// search failure rate is small at both sampled sizes.
func TestE1ShapeHolds(t *testing.T) {
	res := mustLookup("e1").Run(Options{Quick: true, Seed: 2})
	for _, row := range res.Table.Rows {
		fail, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad cell: %v", err)
		}
		if fail > 0.10 {
			t.Errorf("n=%s beta=%s: searchFail %s exceeds 0.10", row[0], row[1], row[4])
		}
	}
}

// TestE5AblationShape spot-checks the two-graph advantage: the final-epoch
// red fraction under one graph must exceed the two-graph one.
func TestE5AblationShape(t *testing.T) {
	res := mustLookup("e5").Run(Options{Quick: true, Seed: 3})
	var lastTwo, lastOne float64
	for _, row := range res.Table.Rows {
		v, _ := strconv.ParseFloat(row[3], 64)
		if row[0] == "2" {
			lastTwo = v
		} else {
			lastOne = v
		}
	}
	if lastOne < lastTwo {
		t.Errorf("ablation inverted: single-graph redFrac %.4f < two-graph %.4f", lastOne, lastTwo)
	}
}

// TestE13Perfect: agreement and validity must be exact.
func TestE13Perfect(t *testing.T) {
	res := mustLookup("e13").Run(Options{Quick: true, Seed: 4})
	for _, row := range res.Table.Rows {
		if row[3] != "1.000" || row[4] != "1.000" {
			t.Errorf("BA row %v: agreement/validity below 1", row)
		}
	}
}

// mustLookup fetches a built-in experiment or fails the compile-time
// contract that the built-in IDs exist.
func mustLookup(id string) Experiment {
	e, ok := Default().Lookup(id)
	if !ok {
		panic("unknown experiment " + id)
	}
	return e
}

// noopStream is a valid Stream that emits nothing.
func noopStream(context.Context, Options, Emitter) error { return nil }

// TestRegisterRejectsDuplicates: re-registering a built-in ID fails and
// leaves the built-in in place.
func TestRegisterRejectsDuplicates(t *testing.T) {
	reg := Default()
	if err := reg.Register(Experiment{ID: "e1", Title: "imposter", Stream: noopStream}); err == nil {
		t.Fatal("duplicate ID e1 accepted")
	}
	if got, _ := reg.Lookup("e1"); got.Title == "imposter" {
		t.Error("rejected registration still replaced the original")
	}
	if n := len(reg.List()); n != 21 {
		t.Errorf("registry lists %d experiments after a rejected registration, want 21", n)
	}
}

// TestRegisterRejectsDuplicatesAndEmpty: a fresh registry refuses a second
// registration of an existing ID, an empty ID, and a nil Stream.
func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Experiment{ID: "x", Title: "original", Stream: noopStream}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Experiment{ID: "x", Title: "imposter", Stream: noopStream}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := reg.Register(Experiment{Title: "anonymous", Stream: noopStream}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := reg.Register(Experiment{ID: "y"}); err == nil {
		t.Error("nil Stream accepted")
	}
	if got, _ := reg.Lookup("x"); got.Title != "original" {
		t.Error("rejected registration still replaced the original")
	}
	if n := len(reg.List()); n != 1 {
		t.Errorf("registry lists %d experiments after one valid registration", n)
	}
}

// TestZeroValueRegistry: the zero value must be usable, not panic.
func TestZeroValueRegistry(t *testing.T) {
	var reg Registry
	if _, ok := reg.Lookup("x"); ok {
		t.Error("empty registry resolved an ID")
	}
	if err := reg.Run(context.Background(), "x", Options{}, &Collector{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Run on empty registry: %v", err)
	}
	if err := reg.Register(Experiment{ID: "x", Title: "t", Stream: noopStream}); err != nil {
		t.Fatalf("Register on zero value: %v", err)
	}
	if _, ok := reg.Lookup("x"); !ok {
		t.Error("registered experiment not found")
	}
}

// TestRunUnknownExperiment: Run and Render fail with the typed error.
func TestRunUnknownExperiment(t *testing.T) {
	reg := Default()
	if err := reg.Run(context.Background(), "e99", Options{}, &Collector{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Run: err = %v, want ErrUnknownExperiment", err)
	}
	var b strings.Builder
	if err := reg.Render(context.Background(), "e99", Options{}, &b); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Render: err = %v, want ErrUnknownExperiment", err)
	}
	if b.Len() != 0 {
		t.Errorf("Render wrote %q for an unknown ID", b.String())
	}
}

// TestRunStreamsRows drives a cheap real experiment end to end through
// Registry.Run.
func TestRunStreamsRows(t *testing.T) {
	var c Collector
	if err := Default().Run(context.Background(), "e13", Options{Quick: true, Seed: 1}, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Table.Header) == 0 || c.Table.Header[0] != "|G|" {
		t.Errorf("header = %v", c.Table.Header)
	}
	if len(c.Table.Rows) != 6 || len(c.Notes) == 0 {
		t.Errorf("rows = %d (want 6), notes = %d (want > 0)", len(c.Table.Rows), len(c.Notes))
	}
}

// TestRenderMatchesExperimentTable: Render writes exactly the aligned
// table of the streamed rows followed by one line per note.
func TestRenderMatchesExperimentTable(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	var b strings.Builder
	if err := Default().Render(context.Background(), "e13", o, &b); err != nil {
		t.Fatal(err)
	}
	var c Collector
	if err := Default().Run(context.Background(), "e13", o, &c); err != nil {
		t.Fatal(err)
	}
	want := c.Table.String()
	for _, n := range c.Notes {
		want += "  note: " + n + "\n"
	}
	if b.String() != want {
		t.Errorf("Render differs from the stream:\n--- stream\n%s\n--- render\n%s", want, b.String())
	}
}

// TestStreamEmissionOrder checks the streaming contract on a cheap
// experiment: exactly one header, then rows, then notes, matching the
// buffered Result byte for byte.
func TestStreamEmissionOrder(t *testing.T) {
	e := mustLookup("e13")
	var events []string
	var c Collector
	err := e.Stream(context.Background(), Options{Quick: true, Seed: 1}, &recordingEmitter{c: &c, events: &events})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0] != "header" {
		t.Fatalf("stream did not open with a header: %v", events)
	}
	sawRow := false
	for i, ev := range events[1:] {
		switch ev {
		case "header":
			t.Fatalf("second header at event %d", i+1)
		case "row":
			if sawRow && events[i] == "note" {
				t.Fatalf("row after note at event %d", i+1)
			}
			sawRow = true
		}
	}
	want := e.Run(Options{Quick: true, Seed: 1})
	if c.Table.String() != want.Table.String() {
		t.Error("streamed table differs from buffered Run")
	}
}

// TestStreamCancellationStopsChainedExperiment cancels e4 after its first
// emitted row: the stream must stop with ctx.Err() before producing the
// full epoch series.
func TestStreamCancellationStopsChainedExperiment(t *testing.T) {
	e := mustLookup("e4")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	em := &funcEmitter{onRow: func([]string) {
		rows++
		cancel()
	}}
	err := e.Stream(ctx, Options{Quick: true, Seed: 1}, em)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != 1 {
		t.Errorf("stream emitted %d rows after cancellation, want 1", rows)
	}
}

// TestRunCancellationStopsStream is the same cancel-after-first-row check
// through Registry.Run, which must pass ctx.Err() back unwrapped.
func TestRunCancellationStopsStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	em := &funcEmitter{onRow: func([]string) { rows++; cancel() }}
	err := Default().Run(ctx, "e4", Options{Quick: true, Seed: 1}, em)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != 1 {
		t.Errorf("stream emitted %d rows after cancellation, want 1", rows)
	}
}

// recordingEmitter forwards to a Collector while logging event kinds.
type recordingEmitter struct {
	c      *Collector
	events *[]string
}

func (r *recordingEmitter) Header(cols ...string) {
	*r.events = append(*r.events, "header")
	r.c.Header(cols...)
}
func (r *recordingEmitter) Row(cells ...string) {
	*r.events = append(*r.events, "row")
	r.c.Row(cells...)
}
func (r *recordingEmitter) Note(text string) {
	*r.events = append(*r.events, "note")
	r.c.Note(text)
}

// funcEmitter dispatches rows to a callback and drops the rest.
type funcEmitter struct{ onRow func([]string) }

func (f *funcEmitter) Header(...string) {}
func (f *funcEmitter) Row(cells ...string) {
	if f.onRow != nil {
		f.onRow(cells)
	}
}
func (f *funcEmitter) Note(string) {}
