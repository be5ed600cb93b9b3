// Package lisp2 implements the four-phase LISP2 mark-compact collector
// (§II of the paper) with parallel phases, and serves as the engine for
// every collector in this repository:
//
//   - SVAGC is LISP2 with the SwapVA move policy, request aggregation,
//     and the pinned compaction of Algorithm 4 (package gc/svagc);
//   - the memmove baseline is LISP2 with swapping disabled;
//   - ParallelGC's full collections and sliding minor collections reuse
//     the same phases over a sub-range (package gc/pargc);
//   - the Shenandoah-like collector is LISP2 with concurrent marking and
//     a single-threaded, non-work-stealing copy phase (package gc/shen).
//
// Parallelism is virtual: work items are attributed to per-worker
// simulated clocks (round-robin for work stealing, static chunks without
// it) and a phase lasts as long as its slowest worker.
package lisp2

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config tunes the collector.
type Config struct {
	// Workers is the GC thread count for mark/forward/adjust (default 4,
	// the paper's GCThreadsCount in Fig. 2).
	Workers int
	// CompactWorkers overrides the worker count for the compaction
	// phase; 0 means Workers. The Shenandoah-like collector sets 1.
	CompactWorkers int
	// Policy routes object moves (SwapVA vs memmove).
	Policy core.MovePolicy
	// Aggregate batches consecutive SwapVA moves into vectored calls
	// (Fig. 5); per Table I it applies to full/major compaction.
	Aggregate bool
	// PinnedCompaction enables Algorithm 4: pin compaction workers, shoot
	// down all cores' TLBs once up front, then flush only locally.
	PinnedCompaction bool
	// WorkStealing selects balanced (round-robin) work attribution; when
	// false, work is attributed in static chunks, modelling a collector
	// without stealing.
	WorkStealing bool
	// Placement selects which cores GC workers fork onto: spread over the
	// whole machine (default) or packed onto the driving thread's socket
	// (gc.PlaceLocal). Irrelevant on a single socket.
	Placement gc.Placement
	// ConcurrentMark charges the marking phase outside the pause,
	// modelling a concurrent marker (the pause keeps a final-mark stub).
	ConcurrentMark bool
	// MaxSwapRetries bounds the EAGAIN-style retries of a transiently
	// failed swap before the move degrades to byte copy (default 3).
	MaxSwapRetries int
	// VerifyHeap runs the post-GC heap-invariant verifier (shadow digest,
	// forwarding resolution, frame accounting) after every collection.
	// Collections on a fault-injected machine are always verified,
	// regardless of this setting.
	VerifyHeap bool
	// PhaseDeadline arms the GC watchdog: a phase whose simulated elapsed
	// time exceeds this budget aborts the collection with a diagnostic
	// dump (*WatchdogError) instead of grinding on. 0 disarms (default).
	PhaseDeadline sim.Time
	// CopyCompact replaces the sliding compaction phase with a full
	// evacuation: live objects are copied out to a freshly mapped to-space
	// image and bulk-copied home. This models a copying collector's
	// headroom appetite — when to-space cannot be mapped under memory
	// pressure the phase degrades to the in-place slide (a degenerated
	// collection) and counts an EvacFailure.
	CopyCompact bool
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 4
	}
	return c.Workers
}

func (c Config) compactWorkers() int {
	if c.CompactWorkers <= 0 {
		return c.workers()
	}
	return c.CompactWorkers
}

func (c Config) maxRetries() int {
	if c.MaxSwapRetries <= 0 {
		return 3
	}
	return c.MaxSwapRetries
}

const (
	// aggregateBatch bounds the vectored SwapVA batch size.
	aggregateBatch = 32
	// safepointNs is the stop-the-world entry cost.
	safepointNs = 20 * sim.Microsecond
	// barrierNs is the per-phase synchronisation cost.
	barrierNs = 2 * sim.Microsecond
	// retryBackoffNs is the base backoff charged before the first retry
	// of a transiently failed swap; it doubles per attempt, capped at 64x.
	retryBackoffNs = 5 * sim.Microsecond
	// reserveFrames is the GC-critical frame reservation acquired for the
	// duration of each collection on a watermarked machine: degrade-to-copy
	// bounce frames draw from it, so compaction cannot fail at the min
	// watermark, and it is small enough not to dent mutator headroom.
	reserveFrames = 8
)

// gcReserve resolves the per-collection frame reservation: reserveFrames
// on a watermarked machine, and 0 (fully disabled — the bit-identical
// legacy path) everywhere else.
func (c *Collector) gcReserve() int {
	if c.H.AS.Phys.Watermarks().Enabled() {
		return reserveFrames
	}
	return 0
}

// Collector is a LISP2 mark-compact collector over one heap.
type Collector struct {
	H     *heap.Heap
	Roots *gc.RootSet

	name  string
	cfg   Config
	stats gc.Stats

	// wd is the per-collection watchdog state; collections run on one
	// host goroutine (virtual parallelism), so a plain field suffices.
	wd watchdog
	// reserveActive is the frame reservation held for the current
	// collection (0 = none); degradeToCopy draws bounce frames against it.
	reserveActive int
}

// New builds a collector. The name is reported by Name() and in results
// ("svagc", "lisp2-memmove", ...).
func New(name string, h *heap.Heap, roots *gc.RootSet, cfg Config) *Collector {
	return &Collector{H: h, Roots: roots, name: name, cfg: cfg}
}

// Name implements gc.Collector.
func (c *Collector) Name() string { return c.name }

// Stats implements gc.Collector.
func (c *Collector) Stats() *gc.Stats { return &c.stats }

// Config returns the active configuration.
func (c *Collector) Config() Config { return c.cfg }

// endPhase closes one LISP2 phase: it records each worker's busy span
// (start → the worker's own clock, captured before the barrier equalises
// the clocks), runs the phase barrier, and records the phase event with
// the makespan duration on the driving context. It returns the
// post-barrier instant, exactly like pool.BarrierSync, plus the watchdog
// verdict on the finished phase's makespan.
func (c *Collector) endPhase(ctx *machine.Context, pool *gc.Pool,
	name string, start sim.Time) (sim.Time, error) {

	if ctx.Trace != nil {
		for i, w := range pool.Workers {
			w.Trace.Emit(trace.KindSpan, name, start, w.Clock.Now()-start,
				uint64(i), 0)
		}
	}
	end := pool.BarrierSync(barrierNs)
	ctx.Trace.Emit(trace.KindPhase, name, start, end-start,
		uint64(pool.Size()), 0)
	return end, c.checkPhase(ctx, end)
}

// Collect implements gc.Collector: a full collection of the entire heap.
func (c *Collector) Collect(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	return c.CollectRange(ctx, cause, c.H.Start(), gc.KindFull, nil)
}

// CollectRange collects and slides the range [from, top) down to from.
// Objects below from are treated as immortal for this cycle and are
// neither traced into nor moved. holders are objects below from whose
// reference slots may point into the range (a generational remembered
// set); their slots act as roots and are adjusted. A full collection
// passes from = heap start and no holders.
func (c *Collector) CollectRange(ctx *machine.Context, cause gc.Cause,
	from uint64, kind string, holders []heap.Object) (*gc.PauseInfo, error) {

	pauseStart := ctx.Clock.Now()
	ctx.Clock.Advance(safepointNs)
	if err := c.H.RetireAllTLABs(ctx); err != nil {
		return nil, fmt.Errorf("lisp2: retiring TLABs: %w", err)
	}

	pool := gc.NewPoolPlaced(ctx, c.cfg.workers(), c.cfg.Placement)
	restoreStreams := pool.SetNodeStreams()
	defer restoreStreams()
	oldTop := c.H.Top()

	// Acquire the GC-critical frame reservation for the collection's
	// duration: degrade-to-copy bounce frames draw from it, immune to the
	// min watermark. Failure to reserve is not fatal — the collection
	// proceeds reserveless and the ladder still completes (Memmove itself
	// needs no frames) — so PR 4's always-completes contract holds even on
	// a machine with zero headroom.
	if n := c.gcReserve(); n > 0 {
		if c.H.AS.Phys.Reserve(n) == nil {
			c.reserveActive = n
			defer func() {
				c.H.AS.Phys.ReleaseReserve(c.reserveActive)
				c.reserveActive = 0
			}()
		}
	}
	c.wd = watchdog{deadline: c.cfg.PhaseDeadline}

	t0 := pool.BarrierSync(0)
	c.wd.arm("mark", t0)
	liveBytes, liveObjects, err := c.markPhase(pool, from, oldTop, holders)
	if err != nil {
		return nil, fmt.Errorf("lisp2: mark: %w", err)
	}
	t1, err := c.endPhase(ctx, pool, "mark", t0)
	if err != nil {
		return nil, err
	}

	c.wd.arm("forward", t1)
	newTop, swapMoves, err := c.forwardPhase(pool, from, oldTop)
	if err != nil {
		return nil, fmt.Errorf("lisp2: forward: %w", err)
	}
	t2, err := c.endPhase(ctx, pool, "forward", t1)
	if err != nil {
		return nil, err
	}

	c.wd.arm("adjust", t2)
	if err := c.adjustPhase(pool, from, oldTop, holders); err != nil {
		return nil, fmt.Errorf("lisp2: adjust: %w", err)
	}
	t3, err := c.endPhase(ctx, pool, "adjust", t2)
	if err != nil {
		return nil, err
	}

	// Shadow verification brackets compaction: capture after adjust (every
	// forwarding address and final reference value is in place), verify
	// after the slide. Host-side and uncharged, so simulated figures are
	// unaffected. Fault-injected machines are always verified — that is
	// where a bad rollback or degraded move would corrupt the heap.
	var shadow *heap.ShadowDigest
	if c.cfg.VerifyHeap || ctx.Fault.Active() {
		shadow, err = c.H.CaptureShadow(from, oldTop)
		if err != nil {
			return nil, fmt.Errorf("lisp2: shadow capture: %w", err)
		}
	}

	c.wd.arm("compact", t3)
	if c.cfg.CopyCompact {
		err = c.evacuateCompact(pool, from, oldTop, newTop)
	} else {
		err = c.compactPhase(pool, from, oldTop, swapMoves)
	}
	if err != nil {
		if errors.Is(err, ErrWatchdog) {
			return nil, err
		}
		return nil, fmt.Errorf("lisp2: compact: %w", err)
	}
	t4, err := c.endPhase(ctx, pool, "compact", t3)
	if err != nil {
		return nil, err
	}

	c.H.SetTop(newTop)
	if shadow != nil {
		if err := c.H.VerifyShadow(shadow, newTop); err != nil {
			return nil, fmt.Errorf("lisp2: heap verification (%d live objects): %w",
				shadow.Objects(), err)
		}
	}
	ctx.Clock.AdvanceTo(t4)

	var poolPerf sim.Perf
	pool.CollectPerf(&poolPerf)
	ctx.Perf.Add(&poolPerf)

	pause := &gc.PauseInfo{
		Kind:  kind,
		Cause: cause,
		At:    pauseStart,
		Total: t4 - pauseStart,
		Phases: gc.PhaseTimes{
			Mark:    t1 - t0,
			Forward: t2 - t1,
			Adjust:  t3 - t2,
			Compact: t4 - t3,
		},
		LiveBytes:    liveBytes,
		LiveObjects:  liveObjects,
		MovedBytes:   poolPerf.BytesCopied,
		SwappedPages: poolPerf.PagesSwapped,
		SwapVACalls:  poolPerf.SwapVACalls,
		MemmoveCalls: poolPerf.MemmoveCalls,
		IPIs:         poolPerf.IPIsSent,
		Degraded:     poolPerf.SwapFallbacks + poolPerf.EvacFailures,
	}
	if c.cfg.ConcurrentMark {
		// Marking ran concurrently with the mutators: take it out of the
		// pause, keeping a final-mark stub (remark of the residual few
		// percent plus a barrier), and book the bulk as concurrent work
		// that the runtime charges against application time.
		stub := barrierNs + pause.Phases.Mark/20
		if stub > pause.Phases.Mark {
			stub = pause.Phases.Mark
		}
		c.stats.Concurrent += pause.Phases.Mark - stub
		pause.Total -= pause.Phases.Mark - stub
		pause.Phases.Mark = stub
		// The concurrent portion is invisible in the "mark" phase event
		// (which now only covers the stub's share of the pause); record it
		// explicitly so traces show where the off-pause work went.
		ctx.Trace.Emit(trace.KindPhase, "concurrent-mark", t0,
			t1-t0-stub, uint64(pool.Size()), 0)
	}
	c.stats.Pauses = append(c.stats.Pauses, *pause)
	return pause, nil
}
