// Command tinygroupsrouter fronts a cluster of tinygroupsd replicas: it
// sends each read to one replica, round-robin, writes each put to every
// replica in one order, aggregates /healthz and /metrics, and drives the
// coordinated two-phase epoch advance (build everywhere, then flip
// everywhere — or abort everywhere).
//
// Usage:
//
//	tinygroupsrouter -shards URL,URL,... [-addr HOST:PORT]
//	                 [-epoch-interval D] [-request-timeout D]
//	                 [-advance-timeout D] [-version]
//
// Every replica answers every key, so the order of -shards only names
// the members in /healthz and /metrics. The router is the cluster's write
// sequencer: run exactly one per cluster, and let it drive the epochs,
// either by its -epoch-interval ticker or by explicit POSTs to its
// /v1/epoch/advance — never by the shards' own tickers. Writes through it
// run one at a time, which is what one daemon's writer lock allows.
//
// SIGINT/SIGTERM drain in-flight requests and let a mid-flight
// coordinated advance finish its phase before exiting. A clean drain
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/tinygroups/cluster"
)

// shutdownTimeout bounds the drain on SIGTERM, mirroring tinygroupsd.
const shutdownTimeout = 30 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

// run parses flags and serves until ctx cancels (the signal path) or the
// listener fails, returning the process exit code.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	lg := log.New(stderr, "", 0)
	fs := flag.NewFlagSet("tinygroupsrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8478", "listen address")
	shards := fs.String("shards", "", "comma-separated shard base URLs in shard order (required)")
	epochEvery := fs.Duration("epoch-interval", 0, "drive a coordinated two-phase epoch advance on this period (0 = only via /v1/epoch/advance)")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request bound on forwarded shard calls")
	advTimeout := fs.Duration("advance-timeout", 60*time.Second, "per-shard bound on each phase of a coordinated advance")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		lg.Printf("tinygroupsrouter %s", buildinfo.String())
		return 0
	}
	if len(fs.Args()) != 0 {
		lg.Printf("tinygroupsrouter: unexpected arguments %v", fs.Args())
		return 2
	}
	urls := splitShards(*shards)
	if len(urls) == 0 {
		lg.Printf("tinygroupsrouter: -shards is required")
		return 2
	}

	rt, err := cluster.NewRouter(cluster.Config{
		Shards:         urls,
		RequestTimeout: *reqTimeout,
		AdvanceTimeout: *advTimeout,
		Version:        buildinfo.String(),
		Logf:           lg.Printf,
	})
	if err != nil {
		lg.Printf("tinygroupsrouter: %v", err)
		return 2
	}
	lg.Printf("tinygroupsrouter %s listening on %s (%d shards, epoch-interval=%s)",
		buildinfo.String(), *addr, rt.Shards(), *epochEvery)

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	// The router's ticker is the cluster's one advance driver.
	var tickerDone chan struct{}
	tctx, tcancel := context.WithCancel(context.Background())
	defer tcancel()
	if *epochEvery > 0 {
		tickerDone = make(chan struct{})
		go func() {
			defer close(tickerDone)
			tk := time.NewTicker(*epochEvery)
			defer tk.Stop()
			for {
				select {
				case <-tctx.Done():
					return
				case <-tk.C:
					if st, err := rt.Advance(tctx); err != nil {
						lg.Printf("tinygroupsrouter: coordinated advance: %v", err)
					} else {
						lg.Printf("tinygroupsrouter: advanced cluster to epoch %d", st.Epoch)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		lg.Printf("tinygroupsrouter: serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	lg.Printf("tinygroupsrouter: signal received, draining")
	tcancel()
	if tickerDone != nil {
		<-tickerDone
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		lg.Printf("tinygroupsrouter: shutdown: %v", err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Printf("tinygroupsrouter: serve: %v", err)
		return 1
	}
	lg.Printf("tinygroupsrouter: clean exit")
	return 0
}

// splitShards parses the -shards list, trimming blanks so a trailing
// comma is harmless.
func splitShards(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}
