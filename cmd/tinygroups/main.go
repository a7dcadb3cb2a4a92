// Command tinygroups regenerates the paper-reproduction tables from the
// experiment registry.
//
// Usage:
//
//	tinygroups [-quick] [-seed N] [-parallel N] [-trials N] [-stream] <scenario>...
//	tinygroups list
//	tinygroups all
//
// Scenarios are e1..e21; `tinygroups list` names the paper claim each
// regenerates.
// Trials within each scenario fan across workers (-parallel, default
// GOMAXPROCS); tables are bit-identical at every parallelism level because
// every trial's randomness is derived from the root seed by hashing.
//
// -stream prints rows the moment they are measured (epoch-chained
// scenarios like e4/e5 produce one row per epoch); the default buffers
// each table for aligned output. Ctrl-C cancels cleanly between rows.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Batch scenarios only poll ctx at row boundaries, so the first ^C may
	// take a while to land. Restoring default signal handling as soon as
	// the context cancels keeps a second ^C as a hard kill.
	go func() {
		<-ctx.Done()
		stop()
	}()
	a := &app{stdout: os.Stdout, stderr: os.Stderr, registry: experiments.Default()}
	os.Exit(a.run(ctx, os.Args[1:]))
}

// app carries the CLI's dependencies so tests can substitute writers and a
// stub experiment registry.
type app struct {
	stdout, stderr io.Writer
	registry       *experiments.Registry
}

// run parses args, executes the selected scenarios, and returns the
// process exit code.
func (a *app) run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("tinygroups", flag.ContinueOnError)
	fs.SetOutput(a.stderr)
	quick := fs.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	seed := fs.Int64("seed", 1, "root seed; per-trial seeds are derived from it by hashing")
	parallel := fs.Int("parallel", 0, "max concurrent trials per scenario (0 = GOMAXPROCS); results are identical at every setting")
	trials := fs.Int("trials", 1, "repetitions behind each sampled table cell, averaged (e1, e2, e8, e13)")
	stream := fs.Bool("stream", false, "print rows as they are produced instead of buffering aligned tables")
	fs.Usage = func() { a.usage(fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		a.usage(fs)
		return 2
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Parallel: *parallel, Trials: *trials}
	var selected []experiments.Experiment
	switch rest[0] {
	case "list":
		for _, s := range a.registry.List() {
			fmt.Fprintf(a.stdout, "%-5s %s\n", s.ID, s.Title)
		}
		return 0
	case "all":
		selected = a.registry.List()
	default:
		for _, id := range rest {
			s, ok := a.registry.Lookup(id)
			if !ok {
				fmt.Fprintf(a.stderr, "unknown scenario %q (try `tinygroups list`)\n", id)
				return 2
			}
			selected = append(selected, s)
		}
	}
	start := time.Now()
	for _, s := range selected {
		if err := a.runOne(ctx, s, opts, *stream); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(a.stderr, "cancelled")
				return 130
			}
			fmt.Fprintf(a.stderr, "%s: %v\n", s.ID, err)
			return 1
		}
	}
	workers := engine.Config{Parallel: opts.Parallel}.Workers()
	fmt.Fprintf(a.stdout, "total wall-clock: %.1fs (%d scenarios, %d workers)\n",
		time.Since(start).Seconds(), len(selected), workers)
	return 0
}

func (a *app) runOne(ctx context.Context, s experiments.Experiment, opts experiments.Options, stream bool) error {
	start := time.Now()
	if stream {
		fmt.Fprintf(a.stdout, "== %s: %s\n\n", s.ID, s.Title)
		if err := a.registry.Run(ctx, s.ID, opts, &liveHandler{w: a.stdout}); err != nil {
			return err
		}
		fmt.Fprintf(a.stdout, "\n  (%.1fs)\n\n", time.Since(start).Seconds())
		return nil
	}
	var buf bytes.Buffer
	if err := a.registry.Render(ctx, s.ID, opts, &buf); err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "== %s: %s (%.1fs)\n\n", s.ID, s.Title, time.Since(start).Seconds())
	if _, err := io.Copy(a.stdout, &buf); err != nil {
		return err
	}
	fmt.Fprintln(a.stdout)
	return nil
}

// liveHandler prints rows as they arrive, padding cells to the header
// widths (wide cells stay readable, just unaligned — the price of not
// buffering).
type liveHandler struct {
	w      io.Writer
	widths []int
}

func (h *liveHandler) Header(cols ...string) {
	h.widths = make([]int, len(cols))
	for i, c := range cols {
		h.widths[i] = len(c)
	}
	h.line(cols)
}

func (h *liveHandler) Row(cells ...string) { h.line(cells) }

func (h *liveHandler) Note(text string) { fmt.Fprintf(h.w, "  note: %s\n", text) }

func (h *liveHandler) line(cells []string) {
	for i, c := range cells {
		w := len(c)
		if i < len(h.widths) && h.widths[i] > w {
			w = h.widths[i]
		}
		fmt.Fprintf(h.w, "%-*s  ", w, c)
	}
	fmt.Fprintln(h.w)
}

func (a *app) usage(fs *flag.FlagSet) {
	fmt.Fprintf(a.stderr, `tinygroups — reproduction harness for "Tiny Groups Tackle Byzantine Adversaries" (IPDPS 2018)

usage:
  tinygroups [flags] <scenario>...   run specific scenarios (e1..e21)
  tinygroups [flags] all             run everything
  tinygroups list                    list scenarios

flags:
`)
	fs.PrintDefaults()
}
