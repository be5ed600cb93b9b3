// Package copygc assembles the evacuating byte-copy baseline: LISP2
// phases with the compaction replaced by a full to-space evacuation
// (lisp2.Config.CopyCompact). It exists for the memory-pressure
// experiments — unlike SVAGC, which compacts by exchanging PTEs and
// needs no target-frame headroom, this collector must map a to-space
// image the size of the live set, so near-OOM it degrades to an
// in-place slide (a degenerated collection) exactly where the paper's
// technique keeps working.
package copygc

import (
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/gc/lisp2"
	"repro/internal/heap"
	"repro/internal/sim"
)

// Config tunes the copying baseline.
type Config struct {
	// Workers is the GC thread count (default 4).
	Workers int
	// PhaseDeadline arms the GC watchdog (0 = off).
	PhaseDeadline sim.Time
}

// New builds the evacuating collector over h.
func New(h *heap.Heap, roots *gc.RootSet, cfg Config) *lisp2.Collector {
	return lisp2.New("copygc", h, roots, lisp2.Config{
		Workers:       cfg.Workers,
		Policy:        Policy(cfg),
		WorkStealing:  true,
		CopyCompact:   true,
		PhaseDeadline: cfg.PhaseDeadline,
	})
}

// Policy returns the move policy (pure memmove — evacuation never swaps).
func Policy(Config) core.MovePolicy {
	return core.MemmovePolicy().ValidateFor(core.PhaseFullCompact)
}
