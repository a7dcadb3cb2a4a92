package tinygroups

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/pow"
	"repro/internal/ring"
	disk "repro/internal/snapshot"
)

// This file wires the internal/snapshot durability layer into the System.
// With WithDataDir, every committed epoch boundary is persisted as an
// atomic, checksummed snapshot; puts between boundaries append to an op
// log; and New recovers by loading the newest valid snapshot and replaying
// the log instead of cold-bootstrapping. Determinism makes the recovery
// verifiable end to end: the restored generation must report the exact
// fingerprint the saver recorded, or the boot fails loudly rather than
// serve a subtly different universe.

// WithDataDir enables durability: snapshots and the op log live under dir
// (created if absent). When the directory already holds a valid snapshot
// whose configuration echo matches, New restores from it — byte-identical
// state, replayed puts — instead of bootstrapping from scratch.
func WithDataDir(dir string) Option { return func(c *config) { c.dataDir = dir } }

// WithSnapshotKeep sets how many epoch snapshots are retained on disk
// (default 3, minimum 1). Only meaningful with WithDataDir.
func WithSnapshotKeep(keep int) Option { return func(c *config) { c.snapshotKeep = keep } }

// DurabilityInfo reports the durability layer's state and counters; see
// System.Durability.
type DurabilityInfo struct {
	// Enabled is true when the System was built with WithDataDir.
	Enabled bool
	// Dir is the data directory path.
	Dir string
	// Recovered is true when New restored state from disk rather than
	// bootstrapping fresh.
	Recovered bool
	// SnapshotEpoch is the epoch of the newest snapshot written or loaded;
	// -1 when none.
	SnapshotEpoch int
	// SnapshotsWritten / OplogAppends / ReplayedOps count durable writes
	// since New. SkippedSnapshots and DiscardedLogBytes report what
	// recovery had to pass over (corrupt snapshot files, torn log tail).
	SnapshotsWritten  int64
	OplogAppends      int64
	ReplayedOps       int64
	SkippedSnapshots  int64
	DiscardedLogBytes int64
	// SnapshotFailures counts epoch-boundary persists that failed; LastErr
	// is the most recent failure message ("" when healthy).
	SnapshotFailures int64
	LastErr          string
}

// durableState is the System's handle on its data directory; nil when
// durability is off.
type durableState struct {
	dir  *disk.Dir
	keep int

	// oplog is the live op log for the current snapshot epoch; guarded by
	// the System's wmu like every other write-path mutation.
	oplog *disk.Log

	recovered         bool
	snapshotEpoch     atomic.Int64
	snapshotsWritten  atomic.Int64
	oplogAppends      atomic.Int64
	replayedOps       atomic.Int64
	skippedSnapshots  atomic.Int64
	discardedLogBytes atomic.Int64
	snapshotFailures  atomic.Int64
	lastErr           atomic.Value // string
}

// Durability reports whether the System persists state and what the
// durability layer has done so far. Safe from any goroutine.
func (s *System) Durability() DurabilityInfo {
	d := s.durable
	if d == nil {
		return DurabilityInfo{SnapshotEpoch: -1}
	}
	info := DurabilityInfo{
		Enabled:           true,
		Dir:               d.dir.Path(),
		Recovered:         d.recovered,
		SnapshotEpoch:     int(d.snapshotEpoch.Load()),
		SnapshotsWritten:  d.snapshotsWritten.Load(),
		OplogAppends:      d.oplogAppends.Load(),
		ReplayedOps:       d.replayedOps.Load(),
		SkippedSnapshots:  d.skippedSnapshots.Load(),
		DiscardedLogBytes: d.discardedLogBytes.Load(),
		SnapshotFailures:  d.snapshotFailures.Load(),
	}
	if e, ok := d.lastErr.Load().(string); ok {
		info.LastErr = e
	}
	return info
}

// configKey echoes every determinism-relevant setting into the snapshot's
// config guard. Workers, observers and retarget wiring are deliberately
// absent: a snapshot must load identically at any worker count, and the
// restore-equivalence gate checks exactly that.
func (c *config) configKey() disk.ConfigKey {
	return disk.ConfigKey{
		N:              c.n,
		Seed:           c.seed,
		BetaBits:       math.Float64bits(c.beta),
		Overlay:        c.overlayName,
		TwoGraphs:      !c.singleGraph,
		VerifyRequests: !c.noVerify,
		Strategy:       int(c.strategy),
		SpamFactor:     c.spamFactor,
		DepartBits:     math.Float64bits(c.midEpochDepartures),
		DriftBits:      math.Float64bits(c.sizeDrift),
	}
}

// epochConfig translates the public option set into the epoch layer's
// config — the single source both the bootstrap and restore paths build
// from, so they cannot drift apart.
func (c *config) epochConfig() (epoch.Config, error) {
	ecfg := epoch.DefaultConfig(c.n)
	ecfg.Params.Beta = c.beta
	ecfg.Overlay = c.overlayName
	ecfg.Strategy = adversary.Strategy(c.strategy)
	ecfg.Seed = c.seed
	ecfg.Workers = c.workers
	ecfg.TwoGraphs = !c.singleGraph
	ecfg.VerifyRequests = !c.noVerify
	ecfg.SpamFactor = c.spamFactor
	ecfg.MidEpochDepartures = c.midEpochDepartures
	ecfg.SizeDrift = c.sizeDrift
	if err := ecfg.Params.Validate(); err != nil {
		return epoch.Config{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return ecfg, nil
}

// buildSnapshot assembles the durable image of the serving state. Callers
// hold wmu (the epoch layer's single-writer discipline).
func (s *System) buildSnapshot() *disk.Snapshot {
	st := s.dyn.Persist()
	sn := &disk.Snapshot{
		Config:      s.cfg.configKey(),
		Epoch:       st.Epoch,
		RNGCount:    st.RNGCount,
		MintWork:    s.snap.Load().mint.work,
		Fingerprint: s.Fingerprint(),
		Ring:        pointsToU64(st.Ring),
		BadList:     pointsToU64(st.BadList),
	}
	if s.retarget != nil {
		sn.RetargetWork = s.retarget.Work()
	}
	for _, pg := range st.Graphs {
		g := make([]disk.Group, len(pg))
		for i, grp := range pg {
			members := make([]disk.Member, len(grp.Members))
			for j, m := range grp.Members {
				members[j] = disk.Member{ID: uint64(m.ID), Bad: m.Bad}
			}
			g[i] = disk.Group{Members: members, Bad: grp.Bad, Confused: grp.Confused}
		}
		sn.Graphs = append(sn.Graphs, g)
	}
	s.store.Range(func(k, v any) bool {
		sn.Keys = append(sn.Keys, disk.KV{Key: k.(string), Value: v.([]byte)})
		return true
	})
	sort.Slice(sn.Keys, func(i, j int) bool { return sn.Keys[i].Key < sn.Keys[j].Key })
	return sn
}

// persistLocked writes the current boundary's snapshot, rotates the op log
// to the new epoch, and prunes old files. Callers hold wmu.
func (s *System) persistLocked() error {
	d := s.durable
	sn := s.buildSnapshot()
	if err := d.dir.WriteSnapshot(sn); err != nil {
		return fmt.Errorf("write snapshot e%d: %w", sn.Epoch, err)
	}
	d.snapshotsWritten.Add(1)
	d.snapshotEpoch.Store(int64(sn.Epoch))
	if d.oplog != nil {
		d.oplog.Close()
	}
	lg, err := disk.CreateLog(d.dir.LogPath(sn.Epoch), sn.Epoch)
	if err != nil {
		return fmt.Errorf("rotate op log e%d: %w", sn.Epoch, err)
	}
	d.oplog = lg
	if err := d.dir.Prune(d.keep); err != nil {
		return fmt.Errorf("prune: %w", err)
	}
	return nil
}

// persistBoundaryLocked is persistLocked with failure telemetry instead of
// an error return: the in-memory flip has already committed, so a failed
// durable write degrades durability (counted, surfaced in Durability and
// /metrics) without failing the epoch advance. Callers hold wmu.
func (s *System) persistBoundaryLocked() {
	d := s.durable
	if d == nil {
		return
	}
	if err := s.persistLocked(); err != nil {
		d.snapshotFailures.Add(1)
		d.lastErr.Store(err.Error())
		return
	}
	d.lastErr.Store("")
}

// SaveSnapshot forces a durable snapshot of the current serving state —
// the same write an epoch boundary performs, on demand (operational
// checkpoint before shutdown, tests). It fails with ErrClosed after Close
// and with ErrBadConfig when the System has no data directory.
func (s *System) SaveSnapshot() error {
	s.wmu.lockWait()
	defer s.wmu.unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.durable == nil {
		return fmt.Errorf("%w: SaveSnapshot needs WithDataDir", ErrBadConfig)
	}
	if err := s.persistLocked(); err != nil {
		s.durable.snapshotFailures.Add(1)
		s.durable.lastErr.Store(err.Error())
		return err
	}
	s.durable.lastErr.Store("")
	return nil
}

// appendOpLocked logs one acknowledged put. Callers hold wmu. An append
// failure is returned to the writer — a durable System must not
// acknowledge a write it cannot replay.
func (s *System) appendOpLocked(key string, value []byte) error {
	d := s.durable
	if d == nil || d.oplog == nil {
		return nil
	}
	if err := d.oplog.Append(disk.Op{Key: key, Value: value}); err != nil {
		d.snapshotFailures.Add(1)
		d.lastErr.Store(err.Error())
		return fmt.Errorf("tinygroups: op log append: %w", err)
	}
	d.oplogAppends.Add(1)
	return nil
}

// openDurable attaches a data directory to a freshly-built System and
// either recovers from its newest valid snapshot or initializes it with
// the bootstrap state. Returns the restored *epoch.System (nil when the
// directory held nothing usable and the caller's bootstrap stands).
func openDurable(c *config) (*durableState, *disk.LoadResult, error) {
	dir, err := disk.Open(c.dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: data dir: %v", ErrBadConfig, err)
	}
	d := &durableState{dir: dir, keep: c.snapshotKeep}
	d.snapshotEpoch.Store(-1)
	d.lastErr.Store("")
	res, err := dir.LoadLatest()
	if err != nil {
		if err == disk.ErrNoSnapshot {
			return d, nil, nil
		}
		return nil, nil, fmt.Errorf("%w: data dir: %v", ErrBadConfig, err)
	}
	return d, res, nil
}

// restoreSystem rebuilds the epoch layer from a loaded snapshot.
func restoreSystem(c *config, sn *disk.Snapshot) (*epoch.System, error) {
	if sn.Config != c.configKey() {
		return nil, fmt.Errorf("%w: snapshot was written under a different configuration", disk.ErrConfigMismatch)
	}
	ecfg, err := c.epochConfig()
	if err != nil {
		return nil, err
	}
	st := epoch.PersistedState{
		Epoch:    sn.Epoch,
		RNGCount: sn.RNGCount,
		Ring:     u64ToPoints(sn.Ring),
		BadList:  u64ToPoints(sn.BadList),
	}
	for _, g := range sn.Graphs {
		pg := make([]epoch.PersistedGroup, len(g))
		for i, grp := range g {
			members := make([]groups.Member, len(grp.Members))
			for j, m := range grp.Members {
				members[j] = groups.Member{ID: ring.Point(m.ID), Bad: m.Bad}
			}
			pg[i] = epoch.PersistedGroup{Members: members, Bad: grp.Bad, Confused: grp.Confused}
		}
		st.Graphs = append(st.Graphs, pg)
	}
	dyn, err := epoch.Restore(ecfg, st)
	if err != nil {
		return nil, fmt.Errorf("%w: restore: %v", disk.ErrCorrupt, err)
	}
	return dyn, nil
}

// finishRecovery populates the restored System's read state: the store
// from the snapshot's keys plus the replayed op log, the mint surface from
// the persisted work, and the end-to-end fingerprint check. Called from
// New before the System is published anywhere.
func (s *System) finishRecovery(res *disk.LoadResult) error {
	sn := res.Snapshot
	for _, kv := range sn.Keys {
		v := make([]byte, len(kv.Value))
		copy(v, kv.Value)
		s.store.Store(kv.Key, v)
	}
	for _, op := range res.Ops {
		v := make([]byte, len(op.Value))
		copy(v, op.Value)
		s.store.Store(op.Key, v)
	}
	if s.retarget != nil && sn.RetargetWork > 0 {
		s.retarget = pow.NewRetargeter(sn.RetargetWork, pow.RetargetConfig{TargetSolve: s.cfg.mintTarget})
	}
	s.snap.Store(newSnapshot(s.cfg.seed, s.dyn.Generation(), sn.MintWork))
	if got := s.Fingerprint(); got != sn.Fingerprint {
		return fmt.Errorf("%w: restored generation fingerprint %s != saved %s", disk.ErrCorrupt, got, sn.Fingerprint)
	}
	d := s.durable
	d.recovered = true
	d.snapshotEpoch.Store(int64(sn.Epoch))
	d.replayedOps.Add(int64(len(res.Ops)))
	d.skippedSnapshots.Add(int64(res.SkippedSnapshots))
	d.discardedLogBytes.Add(int64(res.DiscardedLogBytes))
	// Fold the replayed ops into a fresh checkpoint of the same epoch: the
	// rewritten snapshot subsumes the log, and the rotated (empty) log
	// rules out unbounded log growth across repeated crashes. Replay is
	// idempotent, so a crash between the two writes is harmless.
	s.wmu.lockWait()
	defer s.wmu.unlock()
	if err := s.persistLocked(); err != nil {
		return fmt.Errorf("recovery checkpoint: %w", err)
	}
	return nil
}

func pointsToU64(pts []ring.Point) []uint64 {
	out := make([]uint64, len(pts))
	for i, p := range pts {
		out[i] = uint64(p)
	}
	return out
}

func u64ToPoints(v []uint64) []ring.Point {
	out := make([]ring.Point, len(v))
	for i, p := range v {
		out[i] = ring.Point(p)
	}
	return out
}
