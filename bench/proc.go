package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one system-under-test process. Each runs in a process group of
// its own and dies with the benchmark (Pdeathsig), so no exit path — return,
// panic, signal, a killed parent — leaves a daemon behind.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string // base URL it listens on
	logPath string // its stdout and stderr
	started time.Time
	waited  chan struct{} // closed once Wait has returned
}

// live tracks every started process so killAll can reap them from a signal
// handler or a failing run.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc launches bin with args, logging its stderr to logPath.
func startProc(name, bin, addr, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, logPath: logPath, waited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: most daemons are SIGKILLed
		close(p.waited)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill SIGKILLs the process group and waits until the process has ended.
func (p *proc) kill() {
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // ESRCH when already gone
	<-p.waited
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// exited reports whether the process has already ended on its own.
func (p *proc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// killAll reaps every process still running.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// health is the part of a daemon's or router's /healthz the benchmark reads.
type health struct {
	Status      string `json:"status"`
	Epoch       int64  `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	Recovered   bool   `json:"recovered"`
}

// getHealth fetches /healthz once.
func getHealth(hc *http.Client, base string) (health, int, error) {
	var h health
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return h, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, resp.StatusCode, err
}

// waitReady polls p's /healthz until it answers 200 and returns that reply.
// It fails when the process exits first or the deadline passes.
func (p *proc) waitReady(hc *http.Client, timeout time.Duration) (health, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, code, err := getHealth(hc, p.url)
		if err == nil && code == http.StatusOK {
			return h, nil
		}
		if p.exited() {
			log, _ := os.ReadFile(p.logPath) // best effort: the log only explains the error
			return h, fmt.Errorf("%s exited before becoming ready: %s", p.name, bytes.TrimSpace(log))
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("%s not ready after %s (last: code %d, err %v)", p.name, timeout, code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) { return peakRSSOf(strconv.Itoa(p.pid())) }

func peakRSSOf(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// buildBinaries compiles the daemon and the router into dir, once per run.
// Build time is excluded from every metric.
func buildBinaries(repoRoot, dir string) (daemon, router string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/tinygroupsd", "./cmd/tinygroupsrouter")
	cmd.Dir = repoRoot
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("go build daemons: %w\n%s", err, out.String())
	}
	return filepath.Join(abs, "tinygroupsd"), filepath.Join(abs, "tinygroupsrouter"), nil
}
