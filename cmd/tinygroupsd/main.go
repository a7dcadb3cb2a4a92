// Command tinygroupsd serves a tinygroups.System over HTTP/JSON — the
// long-lived process that owns epoch advancement while a fleet of clients
// reads through the API surface.
//
// Usage:
//
//	tinygroupsd [-addr HOST:PORT] [-n N] [-beta B] [-overlay NAME]
//	            [-seed S] [-workers W] [-epoch-interval D]
//	            [-mint-work W]
//	            [-data-dir PATH] [-snapshot-keep K]
//	            [-shard-index I -shard-count K] [-version]
//
// With -data-dir the daemon is durable: every committed epoch boundary is
// written as an atomic, checksummed snapshot under the directory, puts
// between boundaries append to an op log, and a restart with the same
// -data-dir restores the exact pre-crash state (byte-identical epoch
// fingerprint, all acknowledged puts) instead of re-bootstrapping.
// -snapshot-keep bounds the on-disk retention. Changing a
// determinism-relevant flag (-n, -seed, -beta, -overlay, -mint-work, ...)
// against an existing data dir fails at startup; wipe the directory to
// start over.
//
// In cluster mode (-shard-count K > 1) the daemon serves only the keys
// whose ring point falls in shard I's contiguous range, answering a typed
// 421 wrong_shard for the rest; a tinygroupsrouter in front maps keys to
// shards. Every shard of a cluster must share -n and -seed — the
// generations are deterministic replicas, only the serving plane is
// partitioned.
//
// Endpoints (all JSON):
//
//	POST /v1/lookup         {"key":K}            route to the owner of K
//	POST /v1/put            {"key":K,"value":V}  store V (base64) under K
//	GET  /v1/get?key=K                           fetch the stored value
//	POST /v1/compute        {"key":K,"input":I}  BA inside the owner group
//	POST /v1/mint           {"miner":M,"count":C} solve C §IV identity puzzles
//	POST /v1/verify         {"claims":[{"id","sigma"}]} batch-verify claims
//	POST /v1/epoch/advance                       one §III population turnover
//	GET  /healthz                                liveness + current epoch
//	GET  /metrics                                request/epoch/mint counters
//
// Every endpoint calls the System from its handler goroutine: reads are
// lock-free, writes serialise on the System's writer lock and give up
// (504 canceled, nothing applied) when their client does (see
// internal/serve). SIGINT/SIGTERM trigger a graceful shutdown: the
// listener stops accepting, in-flight requests drain, a mid-construction
// epoch aborts cooperatively, and the system closes. A clean drain exits 0.
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/serve"
	"repro/tinygroups"
)

// shutdownTimeout bounds the drain on SIGTERM; a healthy server drains in
// milliseconds, so hitting this means something is wedged.
const shutdownTimeout = 30 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

// run parses flags, builds the system and serves until ctx cancels (the
// signal path) or the listener fails. It returns the process exit code.
// All logging funnels through one log.Logger: the epoch ticker and the
// listener goroutine log concurrently with the main goroutine, and the
// logger's internal mutex is what keeps those writes serialized.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	lg := log.New(stderr, "", 0)
	fs := flag.NewFlagSet("tinygroupsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8477", "listen address")
	n := fs.Int("n", 2048, "population size of the served system")
	beta := fs.Float64("beta", 0.05, "adversary's computational-power fraction")
	overlay := fs.String("overlay", "chord", "input graph: chord | debruijn | viceroy")
	seed := fs.Int64("seed", 1, "root seed; the served system is fully deterministic per seed")
	workers := fs.Int("workers", 0, "construction/batch fan-out width (0 = GOMAXPROCS)")
	epochEvery := fs.Duration("epoch-interval", 0, "advance the epoch on this period in the background (0 = only via /v1/epoch/advance)")
	mintWork := fs.Float64("mint-work", 1<<14, "PoW difficulty of /v1/mint in expected hash attempts per ID")
	dataDir := fs.String("data-dir", "", "durable state directory: snapshot each epoch boundary, op-log puts, restore on restart (empty = in-memory only)")
	snapshotKeep := fs.Int("snapshot-keep", 3, "how many epoch snapshots to retain in -data-dir")
	shardIndex := fs.Int("shard-index", 0, "this daemon's shard number in a cluster (0-based; requires -shard-count)")
	shardCount := fs.Int("shard-count", 1, "cluster size; >1 serves only this shard's ring range and 421s the rest")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		lg.Printf("tinygroupsd %s", buildinfo.String())
		return 0
	}
	if len(fs.Args()) != 0 {
		lg.Printf("tinygroupsd: unexpected arguments %v", fs.Args())
		return 2
	}
	if *shardCount < 1 || *shardIndex < 0 || *shardIndex >= *shardCount {
		lg.Printf("tinygroupsd: -shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount)
		return 2
	}

	opts := []tinygroups.Option{
		tinygroups.WithBeta(*beta),
		tinygroups.WithOverlay(*overlay),
		tinygroups.WithSeed(*seed),
		tinygroups.WithWorkers(*workers),
		tinygroups.WithMintWork(*mintWork),
	}
	if *dataDir != "" {
		opts = append(opts, tinygroups.WithDataDir(*dataDir), tinygroups.WithSnapshotKeep(*snapshotKeep))
	}
	sys, err := tinygroups.New(*n, opts...)
	if err != nil {
		lg.Printf("tinygroupsd: %v", err)
		return 2
	}
	if dur := sys.Durability(); dur.Enabled {
		if dur.Recovered {
			lg.Printf("tinygroupsd: recovered epoch %d from %s (%d ops replayed, %d corrupt snapshots skipped, %d torn log bytes discarded)",
				dur.SnapshotEpoch, dur.Dir, dur.ReplayedOps, dur.SkippedSnapshots, dur.DiscardedLogBytes)
		} else {
			lg.Printf("tinygroupsd: durable in %s (no prior state)", dur.Dir)
		}
	}

	logf := lg.Printf
	srv := serve.New(sys, serve.Config{
		EpochEvery: *epochEvery,
		ShardIndex: *shardIndex,
		ShardCount: *shardCount,
		Version:    buildinfo.String(),
		Logf:       logf,
	})
	logf("tinygroupsd %s: n=%d beta=%v overlay=%s seed=%d workers=%d epoch-interval=%s mint-work=%v shard=%d/%d data-dir=%q",
		buildinfo.String(), *n, *beta, *overlay, *seed, *workers, *epochEvery, *mintWork, *shardIndex, *shardCount, *dataDir)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	select {
	case err := <-errc:
		// The listener failed before any signal — bad address, port in use.
		lg.Printf("tinygroupsd: serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	logf("tinygroupsd: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		lg.Printf("tinygroupsd: shutdown: %v", err)
		return 1
	}
	if err := <-errc; err != nil {
		lg.Printf("tinygroupsd: serve: %v", err)
		return 1
	}
	logf("tinygroupsd: clean exit")
	return 0
}
