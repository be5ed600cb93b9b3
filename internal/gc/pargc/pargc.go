// Package pargc implements the ParallelGC-like baseline: a generational,
// throughput-oriented collector. Minor collections slide the young suffix
// of the heap (everything allocated since the last collection) down onto
// the mature prefix, promoting every survivor; full collections run the
// parallel LISP2 mark-compact with work stealing over the whole heap.
// All moving is memmove — this is the comparator the paper measures SVAGC
// against in Figs. 2, 12, 13 and 16.
//
// Old-to-young references are tracked by a write barrier feeding a
// remembered set of holder objects, which minor collections use as
// additional roots and adjust in place.
package pargc

import (
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/gc/lisp2"
	"repro/internal/heap"
	"repro/internal/machine"
)

// Config tunes the collector.
type Config struct {
	// Workers is the GC thread count (default 4).
	Workers int
	// UseSwapVA routes large-object moves through SwapVA in both minor
	// and full collections — the Table I "Minor (Copying)" row, an
	// extension beyond the paper's SVAGC prototype. Per the matrix,
	// minor collections keep aggregation and PMD caching but not the
	// overlap optimisation. The heap must be built with the matching
	// aligned policy (see Policy).
	UseSwapVA bool
}

const (
	// minYoungBytes is the smallest young region worth a minor
	// collection; below it, allocation failure escalates straight to a
	// full collection.
	minYoungBytes = 256 << 10
	// fullThreshold escalates to a full collection when, after a minor,
	// less than this fraction of the heap is free.
	fullThreshold = 0.125
	// oldFraction is the share of the heap the mature generation may
	// occupy before an allocation failure goes straight to a full
	// collection, modelling ParallelGC's old-gen sizing.
	oldFraction = 0.25
	// edenFraction sizes the young allocation window as a share of the
	// heap: after every collection a soft allocation ceiling is installed
	// that many bytes above the compacted top, so minors fire at eden
	// granularity rather than at heap exhaustion.
	edenFraction = 0.25
)

// Collector is the generational baseline.
type Collector struct {
	H     *heap.Heap
	Roots *gc.RootSet

	engine *lisp2.Collector

	// matureTop separates the mature prefix (compacted by the last
	// collection) from the young suffix (allocated since).
	matureTop uint64

	// remset holds mature objects with possible young references.
	remset  map[heap.Object]struct{}
	remOrd  []heap.Object
	barrier func(ctx *machine.Context, holder heap.Object, slot int, target heap.Object)
}

// Policy returns the allocation/move policy matching cfg: the plain
// memmove policy for the classic baseline, or the minor-copy-validated
// SwapVA policy for the UseSwapVA extension.
func Policy(cfg Config) core.MovePolicy {
	if !cfg.UseSwapVA {
		return core.MemmovePolicy()
	}
	// Minor collections are the binding phase: Table I forbids the
	// overlap optimisation there, so the shared policy drops it.
	return core.DefaultPolicy().ValidateFor(core.PhaseMinorCopy)
}

// New builds the collector and installs its write barrier on h. The heap
// must be built with Policy(cfg): the classic baseline does not page-
// align large objects, the SwapVA extension does.
func New(h *heap.Heap, roots *gc.RootSet, cfg Config) *Collector {
	c := &Collector{
		H:         h,
		Roots:     roots,
		matureTop: h.Start(),
		remset:    map[heap.Object]struct{}{},
	}
	name := "parallelgc"
	if cfg.UseSwapVA {
		name = "parallelgc-swapva"
	}
	c.engine = lisp2.New(name, h, roots, lisp2.Config{
		Workers:          cfg.Workers,
		Policy:           Policy(cfg),
		Aggregate:        cfg.UseSwapVA,
		PinnedCompaction: cfg.UseSwapVA,
		WorkStealing:     true,
	})
	c.barrier = func(_ *machine.Context, holder heap.Object, _ int, target heap.Object) {
		if target == 0 {
			return
		}
		if holder.VA() < c.matureTop && target.VA() >= c.matureTop {
			if _, ok := c.remset[holder]; !ok {
				c.remset[holder] = struct{}{}
				c.remOrd = append(c.remOrd, holder)
			}
		}
	}
	h.Barrier = c.barrier
	c.resetEden()
	return c
}

// resetEden installs the young allocation window above the current top.
func (c *Collector) resetEden() {
	eden := uint64(float64(c.H.Capacity()) * edenFraction)
	c.H.SetSoftLimit(c.H.Top() + eden)
}

// Name implements gc.Collector.
func (c *Collector) Name() string { return c.engine.Name() }

// Stats implements gc.Collector (minor and full pauses share the log).
func (c *Collector) Stats() *gc.Stats { return c.engine.Stats() }

// MatureTop exposes the generation boundary for tests.
func (c *Collector) MatureTop() uint64 { return c.matureTop }

// RemsetSize exposes the remembered-set cardinality for tests.
func (c *Collector) RemsetSize() int { return len(c.remset) }

// Collect implements gc.Collector. Allocation failures first try a minor
// collection of the young suffix; if too little space comes back (or the
// young region is trivial), it escalates to a full collection.
func (c *Collector) Collect(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	youngUsed := int(c.H.Top() - c.matureTop)
	matureUsed := float64(c.matureTop-c.H.Start()) / float64(c.H.Capacity())
	if cause == gc.CauseAllocFailure && youngUsed >= minYoungBytes &&
		matureUsed < oldFraction {
		pause, err := c.minor(ctx, cause)
		if err != nil {
			return nil, err
		}
		free := float64(int(c.H.End()-c.H.Top())) / float64(c.H.Capacity())
		if free >= fullThreshold {
			return pause, nil
		}
	}
	return c.full(ctx, cause)
}

// CollectMinor forces a minor collection (used by benchmarks).
func (c *Collector) CollectMinor(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	return c.minor(ctx, cause)
}

// CollectFull forces a full collection.
func (c *Collector) CollectFull(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	return c.full(ctx, cause)
}

func (c *Collector) minor(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	pause, err := c.engine.CollectRange(ctx, cause, c.matureTop, gc.KindMinor, c.remOrd)
	if err != nil {
		return nil, err
	}
	// Every survivor slid below the new top and is now mature; no
	// old-to-young edges can remain.
	c.matureTop = c.H.Top()
	c.clearRemset()
	c.resetEden()
	return pause, nil
}

func (c *Collector) full(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	pause, err := c.engine.Collect(ctx, cause)
	if err != nil {
		return nil, err
	}
	c.matureTop = c.H.Top()
	c.clearRemset()
	c.resetEden()
	return pause, nil
}

func (c *Collector) clearRemset() {
	for k := range c.remset {
		delete(c.remset, k)
	}
	c.remOrd = c.remOrd[:0]
}

var _ gc.Collector = (*Collector)(nil)
