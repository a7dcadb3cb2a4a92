package snapshot

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Dir manages a tinygroups data directory:
//
//	snap-<epoch>.tgsnap   one snapshot per committed epoch boundary
//	oplog-<epoch>.tglog   puts accepted since snapshot <epoch>
//	*.tmp                 in-flight atomic writes (ignored, reaped)
//
// Snapshots are written with the classic atomic protocol — temp file,
// fsync, rename into place, fsync the directory — so a crash at any stage
// leaves either the old set of snapshots or the old set plus one complete
// new file, never a half-written one under the final name. LoadLatest
// walks snapshots newest-first and skips anything that fails decode, so a
// corrupt newest file degrades to the previous boundary instead of
// refusing to boot.
type Dir struct {
	path string
}

// ErrNoSnapshot is returned by LoadLatest when the directory holds no
// valid snapshot — the caller should cold-boot.
var ErrNoSnapshot = errors.New("snapshot: no valid snapshot in data dir")

const (
	snapPrefix = "snap-"
	snapSuffix = ".tgsnap"
	logPrefix  = "oplog-"
	logSuffix  = ".tglog"
)

// Open prepares path as a data directory, creating it if needed and
// removing leftover temp files from interrupted writes.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(path, e.Name()))
		}
	}
	return &Dir{path: path}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

func (d *Dir) snapPath(epoch int) string {
	return filepath.Join(d.path, fmt.Sprintf("%s%012d%s", snapPrefix, epoch, snapSuffix))
}

// LogPath returns the op-log path for the given snapshot epoch.
func (d *Dir) LogPath(epoch int) string {
	return filepath.Join(d.path, fmt.Sprintf("%s%012d%s", logPrefix, epoch, logSuffix))
}

// WriteSnapshot atomically persists s under its epoch number: encode,
// write to a temp file, fsync, rename, fsync the directory.
func (d *Dir) WriteSnapshot(s *Snapshot) error {
	data := Encode(s)
	final := d.snapPath(s.Epoch)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return d.syncDir()
}

func (d *Dir) syncDir() error {
	df, err := os.Open(d.path)
	if err != nil {
		return err
	}
	err = df.Sync()
	cerr := df.Close()
	if err != nil {
		return err
	}
	return cerr
}

// snapshotEpochs lists the epochs that have a snapshot file, descending.
func (d *Dir) snapshotEpochs() ([]int, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var epochs []int
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, snapPrefix) || !strings.HasSuffix(n, snapSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(n, snapPrefix), snapSuffix)
		ep, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		epochs = append(epochs, ep)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	return epochs, nil
}

// LoadResult is what LoadLatest recovered: the newest valid snapshot, the
// replayable ops from its log, and bookkeeping about what was skipped.
type LoadResult struct {
	Snapshot *Snapshot
	Ops      []Op
	// SkippedSnapshots counts newer snapshot files that failed to decode
	// and were passed over; DiscardedLogBytes is the torn op-log tail.
	SkippedSnapshots  int
	DiscardedLogBytes int
}

// LoadLatest loads the newest valid snapshot and replays its op log,
// walking past corrupt or truncated snapshot files to older boundaries. A
// missing or header-corrupt op log yields zero ops (the snapshot alone is
// a consistent state); a torn log tail is discarded. Returns ErrNoSnapshot
// when nothing valid exists.
func (d *Dir) LoadLatest() (*LoadResult, error) {
	epochs, err := d.snapshotEpochs()
	if err != nil {
		return nil, err
	}
	res := &LoadResult{}
	for _, ep := range epochs {
		data, err := os.ReadFile(d.snapPath(ep))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		s, derr := Decode(data)
		if derr != nil {
			res.SkippedSnapshots++
			continue
		}
		res.Snapshot = s
		logEpoch, ops, discarded, lerr := ReadLog(d.LogPath(ep))
		if lerr == nil && logEpoch == ep {
			res.Ops = ops
			res.DiscardedLogBytes = discarded
		}
		return res, nil
	}
	return nil, ErrNoSnapshot
}

// Prune deletes all but the newest keep snapshots and any op logs not
// belonging to a retained snapshot. keep < 1 is treated as 1.
func (d *Dir) Prune(keep int) error {
	if keep < 1 {
		keep = 1
	}
	epochs, err := d.snapshotEpochs()
	if err != nil {
		return err
	}
	retained := make(map[int]bool, keep)
	for i, ep := range epochs {
		if i < keep {
			retained[ep] = true
			continue
		}
		if err := os.Remove(d.snapPath(ep)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, logPrefix) || !strings.HasSuffix(n, logSuffix) {
			continue
		}
		ep, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(n, logPrefix), logSuffix))
		if err != nil || retained[ep] {
			continue
		}
		if err := os.Remove(filepath.Join(d.path, n)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}
