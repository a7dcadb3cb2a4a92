package tinygroups

import (
	"context"

	"repro/internal/engine"
	"repro/internal/groups"
)

// KV is one key/value pair of a PutBatch.
type KV struct {
	Key   string
	Value []byte
}

// BatchResult is one key's outcome within a batch operation: Err is nil,
// ErrUnreachable, or a context error, and Info carries the routing cost
// either way.
type BatchResult struct {
	Info LookupInfo
	Err  error
}

// batchChunk bounds how many keys are fanned out between context polls.
const batchChunk = 1024

// searchBatch fans one routed search per key across short-lived reader
// goroutines, all resolving against the same pinned snapshot, and fills
// results by key index. Per-key randomness is the same hash-derived
// (epoch, key) stream single-key reads use, so out[i] is byte-identical
// to Lookup(keys[i]) and independent of the fan-out width; observer
// events are emitted in key order afterwards.
func (s *System) searchBatch(ctx context.Context, op Op, keys []string) ([]BatchResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	snap := s.snap.Load()
	// One search scratch per worker, borrowed on the worker's first key.
	scratch := make([]*groups.SearchScratch, engine.Workers(s.cfg.workers))
	defer func() {
		for _, sc := range scratch {
			if sc != nil {
				s.putScratch(sc)
			}
		}
	}()
	for lo := 0; lo < len(keys); lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+batchChunk, len(keys))
		engine.ForEach(s.cfg.workers, hi-lo, func(w, i int) {
			if scratch[w] == nil {
				scratch[w] = s.getScratch()
			}
			info, err := snap.lookupAt(keys[lo+i], scratch[w])
			out[lo+i] = BatchResult{Info: info, Err: err}
		})
	}
	if obs := s.cfg.observer; obs != nil {
		for i, br := range out {
			obs.ObserveSearch(SearchEvent{
				Op: op, Key: keys[i], OK: br.Err == nil,
				Owner: br.Info.Owner, Hops: br.Info.Hops, Messages: br.Info.Messages,
			})
		}
	}
	return out, nil
}

// LookupBatch routes every key concurrently against one pinned epoch
// snapshot and returns per-key results in key order. It is lock-free like
// Lookup — safe from any goroutine, including during a live AdvanceEpoch —
// and each out[i] equals what Lookup(keys[i]) would return against the
// same epoch. The call-level error is non-nil only for ErrClosed or
// context cancellation.
func (s *System) LookupBatch(ctx context.Context, keys []string) ([]BatchResult, error) {
	return s.searchBatch(ctx, OpLookup, keys)
}

// PutBatch stores every pair whose owner is securely reachable, routing
// all keys concurrently. Per-key results report which puts landed;
// semantics per key match Put. PutBatch is a write: concurrent calls are
// safe but serialize on the writer lock, and a call-level context error
// means no pair of the batch was stored.
func (s *System) PutBatch(ctx context.Context, pairs []KV) ([]BatchResult, error) {
	if err := s.wmu.lock(ctx); err != nil {
		return nil, err
	}
	defer s.wmu.unlock()
	keys := make([]string, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
	out, err := s.searchBatch(ctx, OpPut, keys)
	if err != nil {
		return nil, err
	}
	for i, br := range out {
		if br.Err != nil {
			continue
		}
		v := make([]byte, len(pairs[i].Value))
		copy(v, pairs[i].Value)
		if err := s.appendOpLocked(pairs[i].Key, v); err != nil {
			return nil, err
		}
		s.store.Store(pairs[i].Key, v)
	}
	return out, nil
}
