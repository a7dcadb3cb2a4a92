// Package scenario is the public, streaming face of the reproduction's
// experiment harness: every evaluation table of the paper (e1..e21) is a
// registered Scenario that emits its header, rows and interpretation
// notes *as they are produced* — epoch-chained scenarios surface each
// epoch's row the moment it is measured, and cancelling the context stops
// the remaining work between rows.
//
//	reg := scenario.Default()
//	err := reg.Run(ctx, "e4", scenario.Options{Quick: true, Seed: 1},
//		scenario.HandlerFuncs{OnRow: func(cells []string) { fmt.Println(cells) }})
//
// Registries are map-backed and reject duplicate IDs at Register, so a
// scenario ID is a stable handle. Render is the buffered convenience for
// callers that want the aligned table written to an io.Writer.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// Options tune a scenario run. The zero value runs the full sweep with
// seed 0 at GOMAXPROCS parallelism.
type Options struct {
	// Quick shrinks sweeps for smoke runs and tests.
	Quick bool
	// Seed drives all randomness; every trial's private seed is derived
	// from it by hashing, so tables are reproducible bit for bit.
	Seed int64
	// Parallel caps concurrent trials (0 = GOMAXPROCS); it affects
	// wall-clock only, never results.
	Parallel int
	// Trials multiplies the repetitions behind sampled table cells.
	Trials int
}

// Handler receives a scenario's output incrementally: one Header call,
// then Rows in order, then Notes. Implementations must not retain the
// slices passed to them.
type Handler interface {
	Header(cols ...string)
	Row(cells ...string)
	Note(text string)
}

// HandlerFuncs adapts plain functions to Handler; nil fields drop their
// events.
type HandlerFuncs struct {
	OnHeader func(cols []string)
	OnRow    func(cells []string)
	OnNote   func(text string)
}

// Header implements Handler.
func (h HandlerFuncs) Header(cols ...string) {
	if h.OnHeader != nil {
		h.OnHeader(cols)
	}
}

// Row implements Handler.
func (h HandlerFuncs) Row(cells ...string) {
	if h.OnRow != nil {
		h.OnRow(cells)
	}
}

// Note implements Handler.
func (h HandlerFuncs) Note(text string) {
	if h.OnNote != nil {
		h.OnNote(text)
	}
}

// StreamFunc produces one scenario's output. It returns a non-nil error
// only when ctx is cancelled.
type StreamFunc func(ctx context.Context, o Options, h Handler) error

// Scenario is one registered, runnable scenario.
type Scenario struct {
	ID     string
	Title  string
	Stream StreamFunc
}

// ErrUnknownScenario is returned by Run/Render for IDs never registered.
var ErrUnknownScenario = errors.New("scenario: unknown scenario ID")

// Registry is a map-backed scenario index preserving registration order.
// The zero value is an empty, usable registry.
type Registry struct {
	m     map[string]Scenario
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]Scenario{}}
}

// Register adds a scenario, rejecting empty IDs, nil Stream functions and
// duplicate IDs.
func (r *Registry) Register(s Scenario) error {
	if s.ID == "" || s.Stream == nil {
		return fmt.Errorf("scenario: Register needs an ID and a Stream func (got ID %q)", s.ID)
	}
	if r.m == nil {
		r.m = map[string]Scenario{}
	}
	if _, dup := r.m[s.ID]; dup {
		return fmt.Errorf("scenario: duplicate scenario ID %q", s.ID)
	}
	r.m[s.ID] = s
	r.order = append(r.order, s.ID)
	return nil
}

// List returns every scenario in registration order.
func (r *Registry) List() []Scenario {
	out := make([]Scenario, len(r.order))
	for i, id := range r.order {
		out[i] = r.m[id]
	}
	return out
}

// Lookup finds a scenario by ID in O(1).
func (r *Registry) Lookup(id string) (Scenario, bool) {
	s, ok := r.m[id]
	return s, ok
}

// Run streams the scenario's output into h. It fails with
// ErrUnknownScenario for unregistered IDs and with ctx.Err() when the
// context cancels mid-stream.
func (r *Registry) Run(ctx context.Context, id string, o Options, h Handler) error {
	s, ok := r.m[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownScenario, id)
	}
	return s.Stream(ctx, o, h)
}

// Render runs the scenario to completion and writes the column-aligned
// table followed by its notes to w — the buffered convenience over Run.
func (r *Registry) Render(ctx context.Context, id string, o Options, w io.Writer) error {
	var tab metrics.Table
	var notes []string
	err := r.Run(ctx, id, o, HandlerFuncs{
		OnHeader: func(cols []string) { tab.Header = append([]string(nil), cols...) },
		OnRow:    func(cells []string) { tab.Append(append([]string(nil), cells...)...) },
		OnNote:   func(text string) { notes = append(notes, text) },
	})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	for _, n := range notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Default returns a registry holding every experiment of the paper
// reproduction (e1..e21), in that order, adapted to the streaming
// Scenario interface.
func Default() *Registry {
	reg := NewRegistry()
	for _, e := range experiments.All() {
		e := e
		if err := reg.Register(Scenario{
			ID:    e.ID,
			Title: e.Title,
			Stream: func(ctx context.Context, o Options, h Handler) error {
				return e.Stream(ctx, experiments.Options{
					Quick: o.Quick, Seed: o.Seed, Parallel: o.Parallel, Trials: o.Trials,
				}, h)
			},
		}); err != nil {
			panic(err) // the built-in registry is statically duplicate-free
		}
	}
	return reg
}
