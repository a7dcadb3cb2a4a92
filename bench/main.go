// Command bench is the repository's one benchmark: six workloads driven
// against the real binaries over loopback HTTP (five) or the library in
// process (one), an oracle that recomputes every reply, and a traced mode
// that times every layer from the outside. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	runs     int
	out      string
	compare  bool
	// tamper, when set, edits the completed ops before the oracle sees
	// them: the tests' proof that one wrong reply fails the whole run.
	tamper func([]rec)
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace string
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (default: all six)")
	fs.Uint64Var(&o.seed, "seed", 1, "op-stream seed; run i of -runs uses seed+i")
	fs.IntVar(&o.seconds, "seconds", 20, "timed window per workload, seconds")
	fs.StringVar(&trace, "trace", "0", "1: traced run — per-layer ladders, client spans, results/trace.jsonl")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes and 300 ms windows: checks the harness, measures nothing")
	fs.IntVar(&o.runs, "runs", 1, "repeat every workload this many times")
	fs.StringVar(&o.out, "out", filepath.Join("results", "latest.json"), "results document to write")
	fs.BoolVar(&o.compare, "compare", false, "compare two results documents: bench -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, got %q\n", trace)
		return 2
	}
	repoRoot, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(repoRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs OLD.json NEW.json")
			return 2
		}
		return compareFiles(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || o.seconds < 1 || o.runs < 1 {
		fmt.Fprintf(os.Stderr, "bench: bad arguments %v (seconds %d, runs %d)\n", fs.Args(), o.seconds, o.runs)
		return 2
	}
	if o.workload != "" {
		if _, ok := specOf(o.workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	_, err = execute(o, spec, repoRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	return exitCode(err)
}

// exitCode maps execute's error to the process status: 1 when the oracle
// disagreed with the system under test, 3 when the benchmark itself failed.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errIncorrect):
		return 1
	}
	return 3
}

// findRepoRoot checks that the benchmark runs from its own directory inside
// the repository (go run -C bench . and go test both do) and returns the
// repository root.
func findRepoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(strings.TrimSpace(string(b)), "module repro") {
		return "", fmt.Errorf("run from the bench directory of the repository (go run -C bench .): no module repro in %s", root)
	}
	return root, nil
}

// execute runs the selected workloads and writes the results document. It
// returns errIncorrect when any run disagreed with the oracle.
func execute(o options, spec *benchSpec, repoRoot string) (*document, error) {
	cfg := fullConfig(o.seconds)
	if o.smoke {
		cfg = smokeConfig()
	}
	workDir, err := filepath.Abs(filepath.Join(".work", "run-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(workDir)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigs:
			cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sigs)
		close(done)
	}()

	// The canary's memory lives beside the per-process work dirs, so it
	// outlasts this process; a smoke run's 20 ms readings never wait.
	canaryState := filepath.Join(filepath.Dir(workDir), "canary.json")
	if o.smoke {
		canaryState = filepath.Join(workDir, "canary.json")
	}
	daemon, router, err := buildBinaries(repoRoot, filepath.Join(workDir, "bin"))
	if err != nil {
		return nil, err
	}
	doc := &document{Schema: schemaName, Env: readEnvironment(repoRoot, workDir)}
	doc.Config.Seed, doc.Config.Seconds, doc.Config.N = o.seed, o.seconds, cfg.n
	doc.Config.Clients, doc.Config.Smoke, doc.Config.Trace = cfg.clients, o.smoke, o.trace

	incorrect := false
	var last *result
	for _, ws := range workloads {
		if o.workload != "" && ws.name != o.workload {
			continue
		}
		wd := workloadDoc{Name: ws.name}
		for i := 0; i < o.runs; i++ {
			// Each run gets a directory of its own for logs and data dirs,
			// removed when it ends.
			runDir := filepath.Join(workDir, ws.name+"-"+strconv.Itoa(i))
			if err := os.MkdirAll(runDir, 0o755); err != nil {
				return nil, err
			}
			r := &runner{cfg: cfg, seed: o.seed + uint64(i), daemon: daemon, router: router, workDir: runDir,
				hc: &http.Client{Timeout: 30 * time.Second}, tamper: o.tamper, canaryState: canaryState}
			if o.trace {
				r.spans = &spanLog{}
			}
			res, err := r.runWorkload(ws)
			killAll()
			os.RemoveAll(runDir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ws.name, err)
			}
			res.Seed = r.seed
			res.print(os.Stderr, spec, ws)
			wd.Runs = append(wd.Runs, res)
			if !res.Correct {
				incorrect = true
			}
			if o.trace {
				if err := r.spans.write(filepath.Join("results", "trace.jsonl")); err != nil {
					return nil, err
				}
			}
			last = res
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	if o.workload == "" && !o.smoke {
		checkCrossWorkload(doc, &incorrect)
	}
	if err := doc.write(o.out); err != nil {
		return nil, err
	}
	if o.workload != "" {
		line, err := last.finalLine(spec, o.trace)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s\n", line)
	}
	if incorrect {
		return doc, errIncorrect
	}
	return doc, nil
}

// runWorkload wraps one workload run with the drift canary.
func (r *runner) runWorkload(ws workloadSpec) (*result, error) {
	before, waited := settle(r.canaryState, r.cfg.calib)
	var res *result
	var err error
	if ws.name == "repro-suite" {
		res, err = r.runRepro()
	} else {
		res, err = r.runServed(ws)
	}
	if err != nil {
		return nil, err
	}
	if r.spans != nil {
		if err := r.ladders(ws, res); err != nil {
			return nil, err
		}
	}
	after := calibrate(r.cfg.calib)
	res.Calib, res.SettledS = [2]float64{before, after}, waited.Seconds()
	res.Noisy = drift(before, after) > 0.10
	if r.spans != nil {
		res.Layers["bench.calib_sha256_mb_s"] = (before + after) / 2
		res.Layers["bench.calib_drift"] = drift(before, after)
	}
	return res, nil
}

// checkCrossWorkload holds when all workloads ran with one seed: routed-read
// issues point-read's exact requests, so the sampled replies must be
// byte-identical.
func checkCrossWorkload(doc *document, incorrect *bool) {
	var point, routed *result
	for _, w := range doc.Workloads {
		switch w.Name {
		case "point-read":
			point = w.Runs[0]
		case "routed-read":
			routed = w.Runs[0]
		}
	}
	if point == nil || routed == nil {
		return
	}
	if point.Sampled != routed.Sampled || point.SampleDigest != routed.SampleDigest {
		fmt.Fprintf(os.Stderr, "bench: routed-read's sampled replies (%d, digest %s) are not byte-identical to point-read's (%d, %s)\n",
			routed.Sampled, routed.SampleDigest, point.Sampled, point.SampleDigest)
		routed.Correct = false
		routed.Failed++
		*incorrect = true
		return
	}
	fmt.Fprintf(os.Stderr, "routed-read and point-read: %d sampled replies byte-identical (digest %s)\n", point.Sampled, point.SampleDigest)
}
