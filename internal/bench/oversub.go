package bench

import (
	"errors"
	"fmt"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/trace"
)

// oversub1 machine shape: the oom1 pool (16 MiB of RAM) with the swap
// plane armed, so heaps sized past physical memory stay runnable — cold
// pages compress into the zpool or stream to the simulated NVMe far
// tier, and the kswapd-style reclaimer keeps the pool between its
// watermarks. Heap size is the sweep variable: ratio × RAM.
const (
	ovPhysFrames = 4096 // 16 MiB physical pool
	ovPhysBytes  = int64(ovPhysFrames) << mem.PageShift
	ovObjPayload = 64 << 10 // one live/garbage object's payload
)

// ovSwapConfig sizes the backing tiers: a zpool worth a quarter of RAM
// (counted in compressed bytes) in front of a far device comfortably
// larger than the biggest swept heap, so capacity never truncates the
// sweep. Latency/bandwidth stay at the package defaults (datacenter
// NVMe: 10 µs, 2 GB/s). Each nonzero field of Options.Swap (the CLI's
// -swap-tier, -zpool and -far-lat) overrides that field alone.
func ovSwapConfig(opt Options) swaptier.Config {
	c := swaptier.Config{ZpoolBytes: ovPhysBytes / 4, FarBytes: 8 * ovPhysBytes}
	if opt.Swap.ZpoolBytes != 0 {
		c.ZpoolBytes = opt.Swap.ZpoolBytes
	}
	if opt.Swap.FarBytes != 0 {
		c.FarBytes = opt.Swap.FarBytes
	}
	if opt.Swap.FarLatNs != 0 {
		c.FarLatNs = opt.Swap.FarLatNs
	}
	return c
}

// ovRun captures one collector's behaviour at one oversubscription ratio.
type ovRun struct {
	pause   sim.Time // the explicit full collection
	touch   sim.Time // mutator re-walk of the live set, post-GC
	touched int64    // bytes the re-walk streamed
	out, in uint64   // tier traffic over the whole run (pages)
	kswapd  uint64   // background reclaimer activations
	direct  uint64   // synchronous (allocation-stall) reclaims
	swapped int      // pages still in the tier at the end
	mutator string   // post-run allocation outcome: ok / fail-fast
	app     sim.Time // simulated time the JVM covered
	trace   *trace.Tracer
}

// ovPattern fills buf with the run's payload pattern: one word in four
// nonzero, so a page compresses ~4:1 — zpool-friendly but never
// all-zero, forcing real tier storage instead of zero-discard.
func ovPattern(buf []uint64, salt uint64) {
	for i := range buf {
		if i%4 == 0 {
			buf[i] = 0x9e3779b97f4a7c15 ^ (salt + uint64(i))
		} else {
			buf[i] = 0
		}
	}
}

// oversubOne builds a swap-armed machine, fills a ratio× RAM heap with a
// half-live object graph (payloads written, so pages hold data the tier
// must really store), runs one full collection, then re-walks the live
// set — the mutator-side fault-in bill of having been swapped. The
// caller holds a machine slot.
func oversubOne(opt Options, collector string, ratio float64) (*ovRun, error) {
	// Unlike the paper figures, this one never passes through
	// runWorkload: the chaos CI drives the far_write site through it.
	m, err := opt.NewMachine(machine.Config{PhysBytes: ovPhysBytes, Swap: ovSwapConfig(opt)})
	if err != nil {
		return nil, err
	}
	heapBytes := int64(ratio * float64(ovPhysBytes))
	cfg, ok := jvm.ConfigFor(collector, heapBytes, 1, opt.workers())
	if !ok {
		return nil, fmt.Errorf("oversub1: unknown collector %q", collector)
	}
	j, err := jvm.New(m, cfg)
	if err != nil {
		return nil, err
	}
	th := j.Thread(0)

	// Build: live objects interleaved 1:1 with same-sized garbage until
	// ~80% of the heap has been touched. Every payload page is written
	// (the garbage via ZeroOnAlloc), so at every swept ratio the touched
	// set exceeds RAM and the reclaimer must run during the build.
	liveObjs := int(heapBytes * 2 / 5 / ovObjPayload)
	live := make([]*gc.Root, 0, liveObjs)
	buf := make([]uint64, ovObjPayload/8)
	for i := 0; i < liveObjs; i++ {
		r, err := th.AllocRooted(heap.AllocSpec{Payload: ovObjPayload, Class: 1})
		if err != nil {
			return nil, fmt.Errorf("oversub1: build live set: %w", err)
		}
		ovPattern(buf, uint64(i)<<32)
		if err := j.Heap.WritePayloadWords(th.Ctx, r.Obj, 0, 0, buf); err != nil {
			return nil, fmt.Errorf("oversub1: write live payload: %w", err)
		}
		live = append(live, r)
		g, err := th.AllocRooted(heap.AllocSpec{Payload: ovObjPayload, Class: 2})
		if err != nil {
			return nil, fmt.Errorf("oversub1: build garbage: %w", err)
		}
		j.Roots.Remove(g)
	}

	r := &ovRun{trace: m.Tracer()}
	pause, err := j.CollectNow()
	if err != nil {
		return nil, fmt.Errorf("oversub1: %s at %.1fx heap: %w", collector, ratio, err)
	}
	r.pause = pause.Total

	// Touch: stream every live payload back through the mutator. Pages
	// the collection (and the pressure behind it) pushed to the tier pay
	// their major fault here — this delta is the oversubscription tax the
	// mutator sees, and the collectors differ in how much of it they left
	// behind.
	touchStart := th.Ctx.Clock.Now()
	for _, root := range live {
		if err := j.Heap.ReadPayloadWords(th.Ctx, root.Obj, 0, 0, buf); err != nil {
			return nil, fmt.Errorf("oversub1: touch live set: %w", err)
		}
		r.touched += int64(len(buf)) * 8
	}
	r.touch = th.Ctx.Clock.Since(touchStart)

	st := m.SwapTier().Stats()
	r.out, r.in = st.OutPages, st.InPages
	r.swapped = st.Slots
	if kp := m.KswapdPerf(); kp != nil {
		r.kswapd = kp.ReclaimRuns
	}
	r.direct = j.TotalPerf().DirectReclaims
	switch _, err := th.Alloc(heap.AllocSpec{Payload: 512}); {
	case err == nil:
		r.mutator = "ok"
	case errors.Is(err, jvm.ErrMemoryPressure):
		r.mutator = "fail-fast"
	default:
		return nil, fmt.Errorf("oversub1: post-run alloc: %w", err)
	}
	r.app = j.AppTime()
	return r, nil
}

// OversubFarMemory sweeps heap oversubscription (heap = ratio × RAM) on
// a machine whose cold pages spill to a compressed-RAM + far-NVMe swap
// tier. SVAGC compacts by exchanging PTEs — swapped pages move without
// being faulted back — so its pauses and its post-GC mutator fault bill
// grow slowly with the ratio; the evacuating byte-copy baseline must
// materialise both spaces through the reclaimer, and ParallelGC's
// copying young generation sits in between.
func OversubFarMemory(opt Options) (*Result, error) {
	ratios := []float64{1.5, 2, 3, 4}
	if opt.Quick {
		ratios = []float64{1.5, 4}
	}
	collectors := []string{jvm.CollectorSVAGC, jvm.CollectorCopy, jvm.CollectorParallel}
	res := &Result{
		ID:    "oversub1",
		Title: "Extension: far-memory oversubscription (swap tier + kswapd reclaim)",
		Paper: "SwapVA moves swapped pages by PTE exchange without faulting them back, so full-GC pauses stay flat as the heap outgrows RAM; copying collectors drag every evacuated page through the reclaimer",
		Header: []string{"heap", "collector", "gc-pause", "live-touch", "touch-MB/s",
			"swap-out", "swap-in", "kswapd", "direct", "post-alloc"},
	}
	runs := make([]*ovRun, len(ratios)*len(collectors))
	if err := opt.HoldEach(len(runs), func(i int) (_ sim.Time, err error) {
		if runs[i], err = oversubOne(opt, collectors[i%len(collectors)], ratios[i/len(collectors)]); err != nil {
			return 0, err
		}
		return runs[i].app, nil
	}); err != nil {
		return nil, err
	}
	for ri, ratio := range ratios {
		for ci, c := range collectors {
			r := runs[ri*len(collectors)+ci]
			opt.record(r.trace)
			mbs := "-"
			if r.touch > 0 {
				mbs = fmt.Sprintf("%.0f", float64(r.touched)/1e6/(float64(r.touch)/1e9))
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.1fx (%d MiB)", ratio, int64(ratio*float64(ovPhysBytes))>>20),
				c,
				r.pause.String(),
				r.touch.String(),
				mbs,
				fmt.Sprintf("%d", r.out),
				fmt.Sprintf("%d", r.in),
				fmt.Sprintf("%d", r.kswapd),
				fmt.Sprintf("%d", r.direct),
				r.mutator,
			})
		}
	}
	sc := ovSwapConfig(opt).WithDefaults()
	res.Notes = append(res.Notes,
		fmt.Sprintf("RAM %d MiB (%d frames), zpool %d MiB compressed budget, far tier %d MiB NVMe (%.0f µs, %.0f GB/s)",
			ovPhysBytes>>20, ovPhysFrames, sc.ZpoolBytes>>20, sc.FarBytes>>20,
			float64(sc.FarLatNs)/1e3, swaptier.DefaultFarBWGBs),
		"live set is 40% of the heap, written with a 4:1-compressible pattern; garbage pages are zero-filled and discard for free on write-back",
		"post-alloc ok at every point: kswapd's background reclaim keeps allocation working at 4x oversubscription, so direct reclaim never runs (direct 0) and nothing fails fast",
	)
	return res, nil
}
