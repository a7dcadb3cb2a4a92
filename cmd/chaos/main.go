// Command chaos is the kill/restart drill of the fault model: it boots a
// tinygroupsd daemon, drives the adversarial workload suite against it,
// SIGKILLs the process mid-epoch, restarts it, and asserts recovery — the
// restarted daemon answers /healthz and serves a friendly lookup tail at a
// success rate above the floor. A clean run exits 0; any phase failing, or
// the whole-run watchdog expiring, exits 1 (the watchdog SIGQUITs the
// daemon first so its goroutine dump lands in the log, then dumps the
// harness's own stacks).
//
// Both boots share a -data-dir, so the restart is a durability test, not a
// re-bootstrap: the harness records the epoch→fingerprint trail the first
// daemon serves and stores a set of acknowledged keys before the kill, then
// requires the restarted daemon to report recovered=true, resume at an
// epoch no older than the last observed boundary with a matching
// fingerprint, and return every acknowledged key from disk — a fresh
// bootstrap would answer those gets with 404.
//
// Usage:
//
//	chaos -daemon PATH [-addr HOST:PORT] [-n N] [-mint-work W]
//	      [-ops N] [-concurrency C] [-keys K] [-seed S]
//	      [-advance-every N] [-success-floor F] [-timeout D]
//	      [-data-dir DIR]
//
// The op streams are the deterministic generators of internal/workload,
// so two chaos runs with equal seeds apply identical pressure; only the
// kill timing is wall-clock.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// daemonProc is one tinygroupsd process under torture.
type daemonProc struct {
	cmd *exec.Cmd
}

// startDaemon launches the daemon binary and returns once the process is
// spawned (readiness is the caller's waitReady).
func startDaemon(bin string, stderr io.Writer, args ...string) (*daemonProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", bin, err)
	}
	return &daemonProc{cmd: cmd}, nil
}

// kill SIGKILLs the daemon — the crash under test — and reaps it. The
// non-zero exit is the point, so the wait error is discarded. cmd.Wait
// (not Process.Wait) also joins the stdout/stderr copier goroutines, so
// the dead daemon's log pipes never race the restarted one's.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// stop asks for a graceful drain (SIGTERM) and requires a clean exit
// within timeout — a botched drain fails the harness.
func (d *daemonProc) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("chaos: signal daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("chaos: daemon drain exited dirty: %w", err)
		}
		return nil
	case <-time.After(timeout):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("chaos: daemon did not drain within %s", timeout)
	}
}

// health is the slice of the /healthz body the durability assertions read.
type health struct {
	Epoch         int64  `json:"epoch"`
	Fingerprint   string `json:"fingerprint"`
	Durable       bool   `json:"durable"`
	Recovered     bool   `json:"recovered"`
	SnapshotEpoch int    `json:"snapshot_epoch"`
}

// client is the drill's one HTTP client. Every call is a single attempt
// bounded by the client timeout: nothing retries, because only a closed
// daemon answers 503 and the daemon sheds no load with 429.
type client struct {
	base string
	http *http.Client
}

// call sends one request, with in as its JSON body when non-nil, and
// returns the response status; a 200 body is decoded into out when out is
// non-nil.
func (c *client) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// do is the workload.Do of the daemon: op kinds map onto the /v1
// endpoints and statuses back onto outcomes (200 OK, 502 Unreachable, 404
// NotFound); any other status is an error.
func (c *client) do(ctx context.Context, op workload.Op) (workload.Outcome, error) {
	var (
		path string
		in   any
	)
	switch op.Kind {
	case workload.KindLookup:
		path, in = "/v1/lookup", map[string]any{"key": op.Key}
	case workload.KindPut:
		path, in = "/v1/put", map[string]any{"key": op.Key, "value": op.Value}
	case workload.KindAdvance:
		path = "/v1/epoch/advance"
	case workload.KindMint:
		path, in = "/v1/mint", map[string]any{"miner": op.Key, "count": 1}
	default:
		return workload.OK, fmt.Errorf("chaos: unknown op kind %d", op.Kind)
	}
	status, err := c.call(ctx, http.MethodPost, path, in, nil)
	switch {
	case err != nil:
		return workload.OK, err
	case status == http.StatusOK:
		return workload.OK, nil
	case status == http.StatusBadGateway:
		return workload.Unreachable, nil
	case status == http.StatusNotFound:
		return workload.NotFound, nil
	}
	return workload.OK, fmt.Errorf("chaos: POST %s: status %d", path, status)
}

// health reads and decodes /healthz.
func (c *client) health(ctx context.Context) (health, error) {
	var h health
	status, err := c.call(ctx, http.MethodGet, "/healthz", nil, &h)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz status %d", status)
	}
	return h, err
}

// waitReady polls /healthz until the daemon answers 200 or timeout
// elapses.
func (c *client) waitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, err := c.health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after %s (last: %v)", c.base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// get fetches a stored value via /v1/get; ok reports a 200 with a body.
func (c *client) get(ctx context.Context, key string) (value []byte, ok bool) {
	var out struct {
		Value []byte `json:"value"`
	}
	status, err := c.call(ctx, http.MethodGet, "/v1/get?key="+url.QueryEscape(key), nil, &out)
	return out.Value, err == nil && status == http.StatusOK
}

// fingerprintTrail polls /healthz until stop is closed, recording every
// (epoch, fingerprint) pair the daemon serves. The 10ms cadence against the
// 100ms epoch ticker makes the trail effectively gapless, so the epoch the
// restarted daemon recovers to is almost always in the map.
func fingerprintTrail(ctx context.Context, c *client, stop <-chan struct{}) (map[int64]string, *sync.Mutex) {
	trail := make(map[int64]string)
	var mu sync.Mutex
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if h, err := c.health(ctx); err == nil {
					mu.Lock()
					trail[h.Epoch] = h.Fingerprint
					mu.Unlock()
				}
			}
		}
	}()
	return trail, &mu
}

// run executes the chaos sequence and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	daemon := fs.String("daemon", "", "path to the tinygroupsd binary to torture (required)")
	addr := fs.String("addr", "127.0.0.1:8479", "listen address handed to the daemon")
	n := fs.Int("n", 512, "population size of the served system")
	mintWork := fs.Float64("mint-work", 64, "PoW difficulty handed to the daemon (kept low so join-flood mints are cheap)")
	ops := fs.Int("ops", 400, "operations per workload phase")
	concurrency := fs.Int("concurrency", 4, "closed-loop client count")
	keys := fs.Int("keys", 128, "keyspace size")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds apply identical op streams")
	advanceEvery := fs.Int("advance-every", 50, "one epoch advance per this many ops in the attack phases")
	floor := fs.Float64("success-floor", 0.99, "minimum friendly-tail success rate after the restart")
	timeout := fs.Duration("timeout", 120*time.Second, "whole-run watchdog; expiry dumps goroutines and exits 1")
	dataDir := fs.String("data-dir", "", "data directory shared by both daemon boots (default: fresh temp dir, removed on success)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "chaos: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *daemon == "" {
		fmt.Fprintln(stderr, "chaos: -daemon is required")
		return 2
	}
	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-data-*")
		if err != nil {
			fmt.Fprintf(stderr, "chaos: mkdir data dir: %v\n", err)
			return 1
		}
		dir = tmp
		// The dir is the evidence of a failed run: remove it only on a
		// clean exit, and say where it is otherwise.
		defer func() {
			if code == 0 {
				os.RemoveAll(tmp)
			} else {
				fmt.Fprintf(stderr, "chaos: data dir kept at %s\n", tmp)
			}
		}()
	}

	// The watchdog is the harness's own liveness bound: if any phase wedges
	// (a hung drain, a daemon that never comes back), SIGQUIT the daemon so
	// its goroutine dump lands in the log, dump our own stacks, and fail.
	var current atomic.Pointer[exec.Cmd]
	wd := time.AfterFunc(*timeout, func() {
		fmt.Fprintf(stderr, "chaos: watchdog fired after %s — dumping goroutines (data dir %s kept)\n", *timeout, dir)
		if c := current.Load(); c != nil && c.Process != nil {
			_ = c.Process.Signal(syscall.SIGQUIT)
			time.Sleep(2 * time.Second) // let the daemon's dump flush
		}
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 1)
		os.Exit(1)
	})
	defer wd.Stop()

	baseArgs := []string{
		"-addr", *addr,
		"-n", fmt.Sprint(*n),
		"-seed", fmt.Sprint(*seed),
		"-mint-work", fmt.Sprint(*mintWork),
		"-data-dir", dir,
	}
	// The first boot churns epochs in the background; the restart holds the
	// epoch still (0 = advance only on request) so the recovery assertions
	// compare against a stable generation.
	bootArgs := append(append([]string{}, baseArgs...), "-epoch-interval", "100ms")
	restartArgs := append(append([]string{}, baseArgs...), "-epoch-interval", "0")
	ctx := context.Background()
	cl := &client{base: "http://" + *addr, http: &http.Client{Timeout: 2 * time.Second}}

	// Phase 1: boot.
	d, err := startDaemon(*daemon, stderr, bootArgs...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	current.Store(d.cmd)
	defer func() {
		if c := current.Load(); c != nil && c.Process != nil {
			_ = c.Process.Kill()
		}
	}()
	if err := cl.waitReady(ctx, 30*time.Second); err != nil {
		fmt.Fprintf(stderr, "chaos: boot: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "chaos: daemon up at %s (n=%d, data-dir=%s)\n", *addr, *n, dir)

	// The trail poller shadows the first daemon's whole life, recording the
	// fingerprint of every epoch it serves; the restart is checked against
	// this record.
	stopTrail := make(chan struct{})
	trail, trailMu := fingerprintTrail(ctx, cl, stopTrail)

	// Phase 2: adversarial pressure — the three attack workloads, with the
	// background epoch ticker churning underneath. Failures are tolerated
	// here (that is what the attacks are for); transport-level hangs are
	// not, which the per-attempt timeout enforces.
	for _, g := range workload.AttackSuite(*keys, *advanceEvery) {
		res, err := workload.Run(ctx, cl.do, g, *seed, *ops, *concurrency)
		if err != nil {
			fmt.Fprintf(stderr, "chaos: attack %s: %v\n", g.Name(), err)
			return 1
		}
		fmt.Fprintf(stdout, "chaos: attack %-14s ops=%d ok=%d unreachable=%d not_found=%d errors=%d success=%.3f\n",
			g.Name(), res.Ops, res.OK, res.Unreachable, res.NotFound, res.Errors, res.SuccessRate)
	}

	// Phase 2.5: store keys the restart must serve back. Only acknowledged
	// puts count — the op log's contract covers exactly the writes the
	// daemon confirmed.
	durable := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("chaos-durable-%02d", i)
		val := []byte(fmt.Sprintf("survives-the-kill-%02d", i))
		if out, err := cl.do(ctx, workload.Op{Kind: workload.KindPut, Key: key, Value: val}); err == nil && out == workload.OK {
			durable[key] = val
		}
	}
	if len(durable) == 0 {
		fmt.Fprintln(stderr, "chaos: FAIL — no durable put was acknowledged before the kill")
		return 1
	}
	fmt.Fprintf(stdout, "chaos: %d durable keys acknowledged pre-kill\n", len(durable))

	// Phase 3: SIGKILL mid-epoch. An explicit advance is fired and the
	// process killed while it is in flight — between the ticker and this,
	// the crash lands inside an epoch construction with high probability.
	advCtx, advCancel := context.WithTimeout(ctx, 10*time.Second)
	go func() {
		defer advCancel()
		_, _ = cl.do(advCtx, workload.Op{Kind: workload.KindAdvance})
	}()
	time.Sleep(25 * time.Millisecond)
	d.kill()
	advCancel()
	close(stopTrail)
	fmt.Fprintln(stdout, "chaos: daemon SIGKILLed mid-epoch")

	// Phase 4: restart on the same data dir and require /healthz green.
	d2, err := startDaemon(*daemon, stderr, restartArgs...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	current.Store(d2.cmd)
	if err := cl.waitReady(ctx, 30*time.Second); err != nil {
		fmt.Fprintf(stderr, "chaos: restart: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "chaos: daemon restarted, healthz green")

	// Phase 4.5: the restart must be a recovery from disk, not a fresh
	// bootstrap. recovered=true plus the acknowledged keys are the proof
	// (same-seed re-bootstrap reproduces fingerprints but not stored keys);
	// the fingerprint trail pins the recovered epoch to the exact
	// generation the first daemon served at that boundary.
	h, err := cl.health(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: post-restart healthz: %v\n", err)
		return 1
	}
	if !h.Durable || !h.Recovered {
		fmt.Fprintf(stderr, "chaos: FAIL — restarted daemon did not recover from disk (durable=%v recovered=%v)\n",
			h.Durable, h.Recovered)
		return 1
	}
	trailMu.Lock()
	var maxSeen int64 = -1
	for e := range trail {
		if e > maxSeen {
			maxSeen = e
		}
	}
	wantFP, sampled := trail[h.Epoch]
	trailMu.Unlock()
	if h.Epoch < maxSeen {
		fmt.Fprintf(stderr, "chaos: FAIL — recovered epoch %d older than last observed boundary %d\n",
			h.Epoch, maxSeen)
		return 1
	}
	if sampled && h.Fingerprint != wantFP {
		fmt.Fprintf(stderr, "chaos: FAIL — epoch %d fingerprint %s != pre-kill %s\n",
			h.Epoch, h.Fingerprint, wantFP)
		return 1
	}
	recoveredKeys := 0
	for key, want := range durable {
		got, ok := cl.get(ctx, key)
		if !ok || !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "chaos: FAIL — durable key %q lost across the kill (ok=%v)\n", key, ok)
			return 1
		}
		recoveredKeys++
	}
	fmt.Fprintf(stdout, "chaos: recovery verified — epoch %d (snapshot %d, fingerprint %s, sampled=%v), %d/%d keys intact\n",
		h.Epoch, h.SnapshotEpoch, h.Fingerprint, sampled, recoveredKeys, len(durable))

	// Phase 5: friendly tail — uniform lookups against the restarted
	// daemon must clear the success floor (the conceded ε of Theorem 3 is
	// well under 1% at these sizes).
	tail, err := workload.Run(ctx, cl.do, workload.Uniform(*keys), *seed, *ops, *concurrency)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: friendly tail: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "chaos: tail ops=%d ok=%d unreachable=%d errors=%d success=%.4f\n",
		tail.Ops, tail.OK, tail.Unreachable, tail.Errors, tail.SuccessRate)
	if tail.SuccessRate < *floor {
		fmt.Fprintf(stderr, "chaos: FAIL — post-restart success %.4f below floor %.4f\n",
			tail.SuccessRate, *floor)
		return 1
	}

	// Phase 6: graceful drain of the survivor.
	current.Store(nil)
	if err := d2.stop(30 * time.Second); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "chaos: PASS — recovered at %.4f success (floor %.2f), clean drain\n",
		tail.SuccessRate, *floor)
	return 0
}
