// Package scenario is the public name of the reproduction's experiment
// registry: every evaluation table of the paper (e1..e21) is a registered
// Scenario that streams its header, rows and interpretation notes as they
// are produced, and cancelling the context stops the remaining work
// between rows.
//
//	reg := scenario.Default()
//	err := reg.Render(ctx, "e4", scenario.Options{Quick: true, Seed: 1}, os.Stdout)
//
// The types are aliases of the internal experiment registry, so the
// registry is defined once; Registry.Run streams into any value with
// Header, Row and Note methods.
package scenario

import "repro/internal/experiments"

// Options tune a scenario run: Quick shrinks sweeps, Seed drives all
// randomness, Parallel caps concurrent trials (wall-clock only) and Trials
// multiplies the repetitions behind sampled cells.
type Options = experiments.Options

// Scenario is one registered, runnable scenario.
type Scenario = experiments.Experiment

// Registry is a map-backed scenario index preserving registration order.
type Registry = experiments.Registry

// Default returns a registry holding every experiment of the paper
// reproduction, e1..e21, in that order.
func Default() *Registry { return experiments.Default() }
