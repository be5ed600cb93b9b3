package bench

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// oom1 machine shape: a bounded pool small enough that ballast mappings
// can push it to any target occupancy quickly, with watermarks armed so
// the resilience plane (gating, GC reserve, mutator backpressure) is live.
const (
	oomPhysFrames = 4096    // 16 MiB physical pool
	oomHeapBytes  = 4 << 20 // 1024-frame heap, eagerly mapped
)

var oomWatermarks = mem.Watermarks{Min: 8, Low: 16, High: 32}

// oomRun captures one collector's behaviour at one occupancy.
type oomRun struct {
	free     int // frames free when the collection started
	pause    sim.Time
	degraded uint64
	evacFail bool
	mutator  string   // post-GC mutator allocation outcome
	app      sim.Time // simulated time the JVM covered
	trace    *trace.Tracer
}

// oomOne builds a fresh watermarked machine, fills the heap with a
// half-garbage object graph, ballasts the pool to the target occupancy and
// runs one full collection under the named collector. The caller holds
// a machine slot.
func oomOne(opt Options, collector string, occ float64) (*oomRun, error) {
	m, err := opt.NewMachine(machine.Config{PhysBytes: oomPhysFrames << mem.PageShift, Watermarks: oomWatermarks})
	if err != nil {
		return nil, err
	}
	cfg, ok := jvm.ConfigFor(collector, oomHeapBytes, 1, opt.workers())
	if !ok {
		return nil, fmt.Errorf("oom1: unknown collector %q", collector)
	}
	j, err := jvm.New(m, cfg)
	if err != nil {
		return nil, err
	}
	th := j.Thread(0)
	// 40 live 64 KiB objects interleaved with garbage: compaction must slide
	// (or swap) a multi-hundred-page live span over the reclaimed holes.
	for i := 0; i < 40; i++ {
		if _, err := th.AllocRooted(heap.AllocSpec{Payload: 64 << 10, Class: 1}); err != nil {
			return nil, fmt.Errorf("oom1: build live set: %w", err)
		}
		if i%2 == 0 {
			g, err := th.AllocRooted(heap.AllocSpec{Payload: 64 << 10, Class: 2})
			if err != nil {
				return nil, fmt.Errorf("oom1: build garbage: %w", err)
			}
			j.Roots.Remove(g)
		}
	}
	// Ballast the pool (frames held by another consumer — other JVMs, page
	// cache) up to the target occupancy.
	ballast := m.NewAddressSpace()
	target := int(math.Ceil(occ * float64(oomPhysFrames)))
	for m.Phys.Usage().InUse < target {
		if _, err := ballast.MapRegion(1); err != nil {
			return nil, fmt.Errorf("oom1: ballast to %.1f%%: %w", occ*100, err)
		}
	}
	r := &oomRun{free: m.Phys.FreeFrames(), trace: m.Tracer()}

	pause, err := j.CollectNow()
	if err != nil {
		return nil, fmt.Errorf("oom1: %s at %.1f%% occupancy: %w", collector, occ*100, err)
	}
	r.pause = pause.Total
	r.degraded = pause.Degraded
	r.evacFail = j.TotalPerf().EvacFailures > 0

	// The mutator's view after the collection: at the min watermark the
	// allocation fails fast with the structured pressure report.
	switch _, err := th.Alloc(heap.AllocSpec{Payload: 512}); {
	case err == nil:
		r.mutator = "ok"
	case errors.Is(err, jvm.ErrMemoryPressure):
		r.mutator = "fail-fast"
	default:
		return nil, fmt.Errorf("oom1: post-GC alloc: %w", err)
	}
	r.app = j.AppTime()
	return r, nil
}

// OOM1MemoryPressure sweeps physical-pool occupancy and runs a full
// collection under SVAGC and the evacuating byte-copy baseline at each
// point. SwapVA compacts by exchanging PTEs and needs no target-frame
// headroom, so it completes identically at every occupancy; the copying
// collector needs a to-space the size of the live span and degrades to a
// degenerated in-place slide once the pool cannot supply it. The top sweep
// point parks the pool exactly at the min watermark: ordinary allocation
// fails fast with the OOM-style report while the GC still completes from
// its reserved frames.
func OOM1MemoryPressure(opt Options) (*Result, error) {
	occs := []float64{0.80, 0.90, 0.95, 0.99, 0.998}
	if opt.Quick {
		occs = []float64{0.80, 0.95, 0.998}
	}
	res := &Result{
		ID:    "oom1",
		Title: "Extension: full GC under memory pressure (SwapVA vs byte-copy)",
		Paper: "SwapVA's in-place PTE exchange needs no copy headroom, so compaction keeps working at occupancies where an evacuating collector degrades",
		Header: []string{"occupancy", "free-frames", "svagc", "svagc-degraded",
			"copygc", "copy-mode", "copy/svagc", "mutator"},
	}
	collectors := []string{jvm.CollectorSVAGC, jvm.CollectorCopy}
	runs := make([]*oomRun, len(occs)*len(collectors))
	if err := opt.HoldEach(len(runs), func(i int) (_ sim.Time, err error) {
		if runs[i], err = oomOne(opt, collectors[i%2], occs[i/2]); err != nil {
			return 0, err
		}
		return runs[i].app, nil
	}); err != nil {
		return nil, err
	}
	for oi, occ := range occs {
		sv, cp := runs[2*oi], runs[2*oi+1]
		opt.record(sv.trace)
		opt.record(cp.trace)
		mode := "evacuate"
		if cp.evacFail {
			mode = "slide (degenerated)"
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.1f%%", occ*100),
			fmt.Sprintf("%d", sv.free),
			sv.pause.String(),
			fmt.Sprintf("%d", sv.degraded),
			cp.pause.String(),
			mode,
			stats.X(stats.Ratio(float64(cp.pause), float64(sv.pause))),
			sv.mutator,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("pool %d frames, watermarks min=%d low=%d high=%d, GC reserve active",
			oomPhysFrames, oomWatermarks.Min, oomWatermarks.Low, oomWatermarks.High),
		"the 99.8% point sits at the min watermark: mutator allocation fails fast (structured ErrMemoryPressure) while both GCs complete from the reserve",
	)
	return res, nil
}
