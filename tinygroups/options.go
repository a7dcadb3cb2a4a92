package tinygroups

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/overlay"
)

// Strategy selects how the adversary places the ≈βn u.a.r. IDs that PoW
// lets it mint (it cannot choose the values — only which subset to inject).
type Strategy int

const (
	// Uniform injects all of the adversary's u.a.r. IDs (the baseline).
	Uniform Strategy = iota
	// Clustered injects only IDs landing in a contiguous arc.
	Clustered
	// NearKey injects the IDs closest to a victim key.
	NearKey
)

// String returns the strategy name.
func (s Strategy) String() string { return adversary.Strategy(s).String() }

// config collects the options of New; the zero value is completed by
// defaults() before options apply.
type config struct {
	n            int
	beta         float64
	overlayName  string
	strategy     Strategy
	seed         int64
	workers      int
	singleGraph  bool
	observer     Observer
	mintWork     float64
	mintTarget   time.Duration
	dataDir      string
	snapshotKeep int
}

func defaults(n int) config {
	// Beta defaults to 0.05 — the paper's "sufficiently small" β for which
	// the dynamic construction is stable at Θ(log log n) group sizes.
	// mintWork defaults to 2^14 expected attempts — DefaultParams difficulty.
	return config{n: n, beta: 0.05, overlayName: "chord", strategy: Uniform, seed: 1, mintWork: 1 << 14, snapshotKeep: 3}
}

// Option configures a System at construction; options are applied in
// order and validated together by New.
type Option func(*config)

// WithBeta sets the adversary's computational-power fraction (must stay
// below 1/2; realistically ≤ 0.15 for tiny groups at simulable n).
func WithBeta(beta float64) Option { return func(c *config) { c.beta = beta } }

// WithOverlay selects the input-graph construction: "chord" (default),
// "debruijn" or "viceroy".
func WithOverlay(name string) Option { return func(c *config) { c.overlayName = name } }

// WithStrategy sets the adversary's ID-injection strategy.
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithSeed makes the run deterministic: every random draw the system ever
// makes derives from this seed.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers caps the construction worker pool used by AdvanceEpoch and
// the reader fan-out width of the batch operations; 0 (the default) means
// GOMAXPROCS. It affects wall-clock only — results are identical at every
// setting.
func WithWorkers(workers int) Option { return func(c *config) { c.workers = workers } }

// WithSingleGraph switches to the naive single-group-graph protocol the
// paper argues against (the E5 ablation): per-step corruption compounds
// epoch over epoch. The default is the §III two-graph construction.
func WithSingleGraph() Option { return func(c *config) { c.singleGraph = true } }

// WithObserver streams telemetry to obs; see Observer. A nil observer
// (the default) is free: no events are constructed.
func WithObserver(obs Observer) Option { return func(c *config) { c.observer = obs } }

// WithMintWork sets the PoW difficulty of the Mint path in expected hash
// attempts per minted ID (default 2^14; must be ≥ 2). With retargeting
// enabled this is the starting point of the controller.
func WithMintWork(work float64) Option { return func(c *config) { c.mintWork = work } }

// WithMintRetarget enables adaptive difficulty: after each epoch advance
// the mint difficulty is retargeted so the mean observed solve time tracks
// target (clamped to a 4× step per epoch). The zero default keeps the
// difficulty fixed at WithMintWork — and keeps minted IDs a pure function
// of (seed, epoch, miner), which retargeting necessarily trades away since
// it feeds wall-clock measurements back into τ.
func WithMintRetarget(target time.Duration) Option {
	return func(c *config) { c.mintTarget = target }
}

// validate checks everything the epoch layer does not, wrapping each
// failure in ErrBadConfig.
func (c *config) validate() error {
	if c.n < 8 {
		return fmt.Errorf("%w: population n = %d too small (need ≥ 8)", ErrBadConfig, c.n)
	}
	known := false
	names := make([]string, 0, 4)
	for _, b := range overlay.Builders() {
		names = append(names, b.Name)
		known = known || b.Name == c.overlayName
	}
	if !known {
		return fmt.Errorf("%w: unknown overlay %q (have %v)", ErrBadConfig, c.overlayName, names)
	}
	if c.strategy < Uniform || c.strategy > NearKey {
		return fmt.Errorf("%w: unknown strategy %d", ErrBadConfig, int(c.strategy))
	}
	if c.mintWork < 2 {
		return fmt.Errorf("%w: mint work %v too low (need ≥ 2 expected attempts)", ErrBadConfig, c.mintWork)
	}
	if c.mintTarget < 0 {
		return fmt.Errorf("%w: negative mint retarget %v", ErrBadConfig, c.mintTarget)
	}
	if c.snapshotKeep < 1 {
		return fmt.Errorf("%w: snapshot retention %d too low (need ≥ 1)", ErrBadConfig, c.snapshotKeep)
	}
	return nil
}
