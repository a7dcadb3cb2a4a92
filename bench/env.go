package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every results document: a number means little
// without the machine it was taken on.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	WorkDirFS  string `json:"data_dir_fs"`
}

func readEnvironment(repoRoot, workDir string) environment {
	e := environment{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown", // a source checkout without .git is a supported place to run
		Kernel:     "unknown",
		WorkDirFS:  fsType(workDir),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

// fsType names the filesystem holding path, from statfs's magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// calibrate hashes a fixed buffer for d and returns MB/s. It runs before
// and after each workload; two readings more than 10 % apart mean the
// machine changed speed under the workload (a neighbour, a frequency step)
// and the run is marked noisy.
func calibrate(d time.Duration) float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var sum [32]byte
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 16; i++ {
			sum = sha256.Sum256(buf)
			buf[0] = sum[0]
		}
		n += 16
	}
	return float64(n) * float64(len(buf)) / 1e6 / time.Since(t0).Seconds()
}

// settle is the canary reading before a workload, taken when the machine is
// as fast as this checkout has seen it. The reference box goes through
// episodes of a minute or two, a few an hour, in which a neighbour takes
// 10-20 % off the canary and 30-45 % off memory-bound work; three runs
// measured inside one are enough to ruin the spread of a set of ten. So a
// reading more than 10 % below the best one remembered (in stateFile) waits
// and reads again. The waiting is bounded twice: per run, and in total per
// checkout, so a machine that is simply slower than it once was costs a
// bounded delay and is then measured as it is.
func settle(stateFile string, d time.Duration) (reading float64, waited time.Duration) {
	var st struct {
		Best    float64 `json:"best_mb_s"`
		WaitedS float64 `json:"waited_s"`
	}
	if b, err := os.ReadFile(stateFile); err == nil {
		_ = json.Unmarshal(b, &st) // a damaged file only forgets the reference
	}
	start := time.Now()
	for ; ; waited = time.Since(start) {
		reading = calibrate(d)
		if reading >= 0.90*st.Best || waited >= settleMaxRun || st.WaitedS+waited.Seconds() >= settleMaxTotal.Seconds() {
			break
		}
		time.Sleep(2 * time.Second)
	}
	st.Best = max(st.Best, reading)
	st.WaitedS += waited.Seconds()
	if b, err := json.Marshal(st); err == nil {
		_ = os.WriteFile(stateFile, b, 0o644) // best effort: without it the next run just does not wait
	}
	return reading, waited
}

const (
	settleMaxRun   = 40 * time.Second
	settleMaxTotal = 240 * time.Second
)

// drift is the relative difference of two canary readings.
func drift(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if d < 0 {
		d = -d
	}
	return d
}
