package serve

import "sync/atomic"

// counters is the server's telemetry: request counts per endpoint and
// error counts by class. All fields are atomic.Int64 — handlers and
// /metrics itself touch them concurrently from different goroutines — and
// /metrics serves a consistent snapshot (individual counters are exact;
// cross-counter skew of a few in-flight requests is fine).
type counters struct {
	lookups, puts, gets, computes, advances, health atomic.Int64
	mints, verifies                                 atomic.Int64
	errors4xx, errors5xx                            atomic.Int64
	epochsAdvanced                                  atomic.Int64

	// Cluster surface: batch endpoint calls (and the keys they carried)
	// and the two-phase epoch endpoints.
	lookupBatches, lookupBatchedOps      atomic.Int64
	putBatchCalls                        atomic.Int64
	epochBuilds, epochFlips, epochAborts atomic.Int64

	// mintedIDs / verifiedClaims total the items behind the mint and verify
	// calls (one call can carry a batch).
	mintedIDs, verifiedClaims atomic.Int64
}

// MetricsSnapshot is the /metrics JSON document.
type MetricsSnapshot struct {
	Epoch   int64   `json:"epoch"`
	UptimeS float64 `json:"uptime_s"`

	Requests struct {
		Lookup      int64 `json:"lookup"`
		Put         int64 `json:"put"`
		Get         int64 `json:"get"`
		Compute     int64 `json:"compute"`
		Mint        int64 `json:"mint"`
		Verify      int64 `json:"verify"`
		Advance     int64 `json:"advance"`
		Health      int64 `json:"health"`
		LookupBatch int64 `json:"lookup_batch"`
		PutBatch    int64 `json:"put_batch"`
		EpochBuild  int64 `json:"epoch_build"`
		EpochFlip   int64 `json:"epoch_flip"`
		EpochAbort  int64 `json:"epoch_abort"`
	} `json:"requests"`

	// Mint reports the identity layer: IDs minted and claims verified
	// across all calls, plus the configured difficulty (expected attempts
	// per ID).
	Mint struct {
		MintedIDs      int64   `json:"minted_ids"`
		VerifiedClaims int64   `json:"verified_claims"`
		Work           float64 `json:"work"`
	} `json:"mint"`

	Errors struct {
		Client int64 `json:"client_4xx"`
		Server int64 `json:"server_5xx"`
	} `json:"errors"`

	EpochsAdvanced int64 `json:"epochs_advanced"`

	// Durability mirrors System.Durability: the snapshot/op-log layer's
	// state and counters. All zero (with SnapshotEpoch -1 conventionally
	// mapped to 0 by Enabled=false) when the daemon runs without -data-dir.
	Durability struct {
		Enabled           bool  `json:"enabled"`
		Recovered         bool  `json:"recovered"`
		SnapshotEpoch     int   `json:"snapshot_epoch"`
		SnapshotsWritten  int64 `json:"snapshots_written"`
		OplogAppends      int64 `json:"oplog_appends"`
		ReplayedOps       int64 `json:"replayed_ops"`
		SkippedSnapshots  int64 `json:"skipped_snapshots"`
		DiscardedLogBytes int64 `json:"discarded_log_bytes"`
		SnapshotFailures  int64 `json:"snapshot_failures"`
	} `json:"durability"`
}

// snapshot materializes the counters into the /metrics document.
func (c *counters) snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Requests.Lookup = c.lookups.Load()
	s.Requests.Put = c.puts.Load()
	s.Requests.Get = c.gets.Load()
	s.Requests.Compute = c.computes.Load()
	s.Requests.Mint = c.mints.Load()
	s.Requests.Verify = c.verifies.Load()
	s.Requests.Advance = c.advances.Load()
	s.Requests.Health = c.health.Load()
	s.Requests.LookupBatch = c.lookupBatches.Load()
	s.Requests.PutBatch = c.putBatchCalls.Load()
	s.Requests.EpochBuild = c.epochBuilds.Load()
	s.Requests.EpochFlip = c.epochFlips.Load()
	s.Requests.EpochAbort = c.epochAborts.Load()
	s.Mint.MintedIDs = c.mintedIDs.Load()
	s.Mint.VerifiedClaims = c.verifiedClaims.Load()
	s.Errors.Client = c.errors4xx.Load()
	s.Errors.Server = c.errors5xx.Load()
	s.EpochsAdvanced = c.epochsAdvanced.Load()
	return s
}
