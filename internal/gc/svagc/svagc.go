// Package svagc assembles the paper's collector: a parallel LISP2 full GC
// whose compaction phase moves large objects by virtual-address swapping
// (SwapVA) with every optimisation enabled — request aggregation (Fig. 5),
// PMD caching (Fig. 7), overlap-aware swapping (Algorithm 2), and the
// pinned compaction with a single up-front all-core TLB shootdown
// (Algorithm 4).
package svagc

import (
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/gc/lisp2"
	"repro/internal/heap"
	"repro/internal/sim"
)

// Config tunes SVAGC; zero values select the paper's configuration.
type Config struct {
	// Workers is the GC thread count (default 4, as in the paper's
	// multi-JVM experiments).
	Workers int
	// ThresholdPages overrides the swapping threshold (default 10).
	ThresholdPages int
	// DisableSwapVA turns the collector into the "-SwapVA" baseline of
	// Fig. 11: identical phases, memmove-only moving.
	DisableSwapVA bool
	// DisableAggregation, DisablePinning and DisablePMDCaching switch off
	// individual optimisations for ablation studies.
	DisableAggregation bool
	DisablePinning     bool
	DisablePMDCaching  bool
	DisableOverlap     bool
	// HugePages enables the extension beyond the paper: objects of at
	// least 2 MiB align to PMD boundaries and move by swapping whole
	// PMD entries (512 pages per exchange).
	HugePages bool
	// Placement selects GC worker cores on a multi-socket machine
	// (gc.PlaceSpread or gc.PlaceLocal); ignored on one socket.
	Placement gc.Placement
	// PhaseDeadline arms the GC watchdog: a phase exceeding this simulated
	// budget aborts with a diagnostic dump instead of hanging (0 = off).
	PhaseDeadline sim.Time
}

// New builds an SVAGC collector over h.
func New(h *heap.Heap, roots *gc.RootSet, cfg Config) *lisp2.Collector {
	policy := Policy(cfg)
	name := "svagc"
	if cfg.DisableSwapVA {
		name = "svagc-memmove"
	}
	return lisp2.New(name, h, roots, lisp2.Config{
		Workers:          cfg.Workers,
		Policy:           policy,
		Aggregate:        !cfg.DisableSwapVA && !cfg.DisableAggregation,
		PinnedCompaction: !cfg.DisablePinning,
		WorkStealing:     true,
		Placement:        cfg.Placement,
		PhaseDeadline:    cfg.PhaseDeadline,
	})
}

// Policy returns the move policy SVAGC would use for cfg — handy for
// allocators that must agree with the collector on alignment.
func Policy(cfg Config) core.MovePolicy {
	policy := core.DefaultPolicy()
	if cfg.ThresholdPages > 0 {
		policy.ThresholdPages = cfg.ThresholdPages
	}
	policy.UseSwapVA = !cfg.DisableSwapVA
	policy.Swap.PMDCaching = !cfg.DisablePMDCaching
	policy.Swap.Overlap = !cfg.DisableOverlap
	policy.HugePages = cfg.HugePages
	policy.Swap.HugeSwap = cfg.HugePages
	return policy.ValidateFor(core.PhaseFullCompact)
}
