package jvm

import (
	"repro/internal/gc"
	"repro/internal/gc/copygc"
	"repro/internal/gc/pargc"
	"repro/internal/gc/shen"
	"repro/internal/gc/svagc"
	"repro/internal/heap"
	"repro/internal/sim"
)

// Preset collector names accepted by ConfigFor.
const (
	CollectorSVAGC     = "svagc"
	CollectorSVAGCBase = "svagc-memmove" // SVAGC phases, memmove-only moving
	CollectorParallel  = "parallelgc"
	CollectorShen      = "shenandoah"
	// The Table I extension presets: SwapVA applied to the minor-copying
	// and concurrent-evacuation phases of the baselines.
	CollectorParallelSwap = "parallelgc-swapva"
	CollectorShenSwap     = "shenandoah-swapva"
	// CollectorCopy is the evacuating byte-copy baseline for the
	// memory-pressure experiments: identical phases, but compaction
	// copies through a freshly mapped to-space image, so near-OOM it
	// degrades where SVAGC's PTE exchange keeps working.
	CollectorCopy = "copygc"
)

// CollectorNames lists the presets.
func CollectorNames() []string {
	return []string{
		CollectorSVAGC, CollectorSVAGCBase, CollectorParallel, CollectorShen,
		CollectorParallelSwap, CollectorShenSwap, CollectorCopy,
	}
}

// ConfigFor dispatches on a preset collector name.
func ConfigFor(name string, heapBytes int64, threads, gcWorkers int) (Config, bool) {
	return ConfigForDeadline(name, heapBytes, threads, gcWorkers, 0)
}

// ConfigForDeadline is ConfigFor with a GC-watchdog phase deadline
// threaded through to the collectors built on the lisp2 engine's full
// compaction (svagc, svagc-memmove, copygc). The other presets accept
// the name but ignore the deadline — their collection entry points do
// not arm a watchdog yet.
func ConfigForDeadline(name string, heapBytes int64, threads, gcWorkers int,
	deadline sim.Time) (Config, bool) {

	cfg := Config{HeapBytes: heapBytes, Threads: threads}
	switch name {
	case CollectorSVAGC, CollectorSVAGCBase:
		// svagc-memmove is SVAGC with SwapVA disabled — the "-SwapVA"
		// bars of Fig. 11.
		sc := svagc.Config{Workers: gcWorkers, DisableSwapVA: name == CollectorSVAGCBase,
			PhaseDeadline: deadline}
		cfg.Policy = svagc.Policy(sc)
		cfg.NewCollector = func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
			return svagc.New(h, roots, sc)
		}
	case CollectorParallel, CollectorParallelSwap:
		pc := pargc.Config{Workers: gcWorkers, UseSwapVA: name == CollectorParallelSwap}
		cfg.Policy = pargc.Policy(pc)
		cfg.NewCollector = func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
			return pargc.New(h, roots, pc)
		}
	case CollectorShen, CollectorShenSwap:
		sc := shen.Config{Workers: gcWorkers, UseSwapVA: name == CollectorShenSwap}
		cfg.Policy = shen.Policy(sc)
		cfg.NewCollector = func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
			return shen.New(h, roots, sc)
		}
	case CollectorCopy:
		cc := copygc.Config{Workers: gcWorkers, PhaseDeadline: deadline}
		cfg.Policy = copygc.Policy(cc)
		cfg.NewCollector = func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
			return copygc.New(h, roots, cc)
		}
	default:
		return Config{}, false
	}
	return cfg, true
}
