// Package serve implements the HTTP/JSON serving layer behind the
// tinygroupsd daemon: request handlers over a tinygroups.System, a
// background epoch ticker, and graceful drain-then-close shutdown.
//
// The server adds no serialisation of its own — the System's
// one-writer/many-readers contract is the whole concurrency story. Every
// endpoint calls the System from its handler goroutine with the request's
// context. Reads — /v1/lookup, /v1/get, /v1/compute, the batch lookup,
// mint and verify — are lock-free against the atomically-swapped epoch
// snapshot, so they scale with serving goroutines and keep flat latency
// through a live epoch advance. Writes — /v1/put, /v1/put/batch and the
// /v1/epoch endpoints — serialise on the System's writer lock; a write
// waiting behind a long epoch build gives up the moment its client does
// (504 "canceled"), and a write that reports a context error was not
// applied. Waiting writes are bounded by open connections and by one
// epoch build; there is no queue to overflow and nothing is shed.
//
// Shutdown follows the drain-then-close contract: the epoch ticker is
// cancelled first (an in-flight epoch aborts cooperatively between
// construction batches via RunEpochContext), the embedded http.Server
// stops accepting and waits for in-flight handlers — which are the
// in-flight writes, so every accepted request still receives a real
// response — and only then is the System closed.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/tinygroups"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// EpochEvery, when positive, starts a background ticker that advances
	// the epoch at that period. Ticks are closed-loop (a tick waits for
	// the previous advance to finish) and the in-flight advance is
	// cancelled cooperatively on Shutdown.
	EpochEvery time.Duration
	// Logf, when non-nil, receives one line per lifecycle event (start,
	// epoch advance, shutdown). Requests are not logged.
	Logf func(format string, args ...any)

	// ShardIndex/ShardCount label this server's place in a cluster, for
	// /healthz and the startup log line only: every replica serves every
	// key. ShardCount <= 1 is the standalone daemon.
	ShardIndex int
	ShardCount int
	// Version, when non-empty, is the build identity reported by the
	// startup log line and the /healthz payload, so multi-process harness
	// logs identify which binary answered.
	Version string
}

// Server serves a tinygroups.System over HTTP/JSON. Create one with New,
// run it with Serve or ListenAndServe (or mount Handler on any server),
// and stop it with Shutdown.
type Server struct {
	sys *tinygroups.System
	cfg Config
	mux *http.ServeMux
	hs  *http.Server

	// draining is set when Shutdown begins; /healthz reports it. Requests
	// are refused by the closed System, not by this flag.
	draining atomic.Bool

	tickCancel context.CancelFunc
	tickerDone chan struct{}

	start time.Time
	m     counters
}

// New wraps sys in a Server. The Server takes ownership of sys: Shutdown
// closes it. HTTP serving starts with Serve/ListenAndServe.
func New(sys *tinygroups.System, cfg Config) *Server {
	s := &Server{sys: sys, cfg: cfg, start: time.Now()}
	s.mux = s.routes()
	s.hs = &http.Server{Handler: s.mux}
	if cfg.EpochEvery > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		s.tickCancel = cancel
		s.tickerDone = make(chan struct{})
		go s.tick(ctx)
	}
	return s
}

// Handler returns the server's HTTP handler, for mounting on an external
// http.Server or an httptest.Server. Callers that bypass Serve are still
// expected to call Shutdown to close the System, after stopping their own
// server: Shutdown can only wait for handlers of the embedded one.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns nil after a
// clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown. It returns nil
// after a clean Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.cfg.ShardCount > 1 {
		s.logf("tinygroupsd: %s listening on %s (shard %d/%d)",
			s.version(), l.Addr(), s.cfg.ShardIndex, s.cfg.ShardCount)
	} else {
		s.logf("tinygroupsd: %s listening on %s", s.version(), l.Addr())
	}
	return s.Serve(l)
}

// version is the build identity for logs and /healthz, "dev" by default.
func (s *Server) version() string {
	if s.cfg.Version != "" {
		return s.cfg.Version
	}
	return "dev"
}

// Shutdown drains and stops the server: the epoch ticker is cancelled (an
// in-flight advance aborts cooperatively), the HTTP listener stops
// accepting and in-flight handlers — reads and writes alike — complete,
// and the System is closed. ctx bounds the wait; on expiry the remaining
// work is abandoned and ctx.Err() returned. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Cancel the advance that may be mid-construction — RunEpochContext
	// aborts between per-ID batches, so the writer lock frees up quickly.
	if s.tickCancel != nil {
		s.tickCancel()
		select {
		case <-s.tickerDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.hs.SetKeepAlivesEnabled(false)
	if err := s.hs.Shutdown(ctx); err != nil {
		return err
	}
	s.logf("tinygroupsd: drained, closing system")
	return s.sys.Close()
}

// advanceEpoch runs one epoch turnover and counts it. It returns the
// construction stats or the typed error.
func (s *Server) advanceEpoch(ctx context.Context) (tinygroups.Stats, error) {
	st, err := s.sys.AdvanceEpoch(ctx)
	if err == nil {
		s.m.epochsAdvanced.Add(1)
	}
	return st, err
}

// tick drives the background epoch ticker: one closed-loop AdvanceEpoch
// per period, cancelled cooperatively when ctx ends.
func (s *Server) tick(ctx context.Context) {
	defer close(s.tickerDone)
	t := time.NewTicker(s.cfg.EpochEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st, err := s.advanceEpoch(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				s.logf("tinygroupsd: epoch advance failed: %v", err)
				continue
			}
			s.logf("tinygroupsd: epoch %d built (n=%d, qf=%.4f)", st.Epoch, st.N, st.QfSingle)
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
