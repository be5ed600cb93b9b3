package lisp2

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// newPressureWorld builds a world on a machine with a bounded physical
// pool and armed watermarks, plus an optional fault plan.
func newPressureWorld(t *testing.T, heapBytes, physBytes int64,
	wm mem.Watermarks, policy core.MovePolicy, plan fault.Plan) *world {

	t.Helper()
	cfg := machine.Config{
		Cost:       sim.XeonGold6130(),
		PhysBytes:  physBytes,
		Watermarks: wm,
	}
	if plan.Active() {
		cfg.Fault = fault.New(1234, plan)
	}
	m := machine.MustNew(cfg)
	k := kernel.New(m)
	as := m.NewAddressSpace()
	h, err := heap.New(as, k, heap.Config{SizeBytes: heapBytes, Policy: policy, ZeroOnAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		t: t, m: m, k: k, h: h,
		roots: &gc.RootSet{},
		ctx:   m.NewContext(0),
		specs: map[int]heap.AllocSpec{},
		edges: map[int][]int{},
		objs:  map[int]*gc.Root{},
	}
}

// ballastToFree maps single pages in a throwaway address space until the
// pool's free count is at most target frames.
func ballastToFree(t *testing.T, wd *world, target int) {
	t.Helper()
	ballast := wd.m.NewAddressSpace()
	for wd.m.Phys.FreeFrames() > target {
		if _, err := ballast.MapRegion(1); err != nil {
			t.Fatalf("ballast mapping failed at %d free frames (target %d): %v",
				wd.m.Phys.FreeFrames(), target, err)
		}
	}
}

// TestGCCompletesAtMinWatermarkViaReserve is the acceptance scenario: the
// pool is driven to the min watermark, ordinary allocation is gated off,
// every swap is poisoned so compaction needs bounce frames — and the
// collection still completes because its bounce frames come from the GC
// reservation taken up front.
func TestGCCompletesAtMinWatermarkViaReserve(t *testing.T) {
	plan, err := fault.ParsePlan("poison=1")
	if err != nil {
		t.Fatal(err)
	}
	wm := mem.Watermarks{Min: 4, Low: 8, High: 16}
	cfg := svagcConfig()
	cfg.Aggregate = false
	wd := newPressureWorld(t, 2<<20, 4<<20, wm, cfg.Policy, plan)
	c := New("reserve", wd.h, wd.roots, cfg)

	buildChaosGraph(wd, 0, 40)

	// Leave exactly the GC reservation above the min watermark, so taking
	// the reserve lands the pool at (or below) min for the whole pause.
	ballastToFree(t, wd, wm.Min+reserveFrames)
	preFree := wd.m.Phys.FreeFrames()

	// Sanity: with the reserve held, an ordinary allocation is gated.
	if err := wd.m.Phys.Reserve(reserveFrames); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if _, err := wd.m.Phys.AllocFrame(); !errors.Is(err, mem.ErrWatermark) {
		t.Fatalf("ordinary alloc at min watermark: err = %v, want ErrWatermark", err)
	}
	wd.m.Phys.ReleaseReserve(reserveFrames)

	pause, err := c.Collect(wd.ctx, gc.CauseExplicit)
	if err != nil {
		t.Fatalf("collection at the min watermark failed: %v", err)
	}
	wd.verify()

	if wd.ctx.Perf.ReservedAllocs == 0 {
		t.Error("no bounce frames were drawn from the reserve; the scenario did not exercise the reserve pool")
	}
	if pause.Degraded == 0 {
		t.Error("poison=1 collection reported zero degraded moves")
	}
	if got := wd.m.Phys.Reserved(); got != 0 {
		t.Errorf("reservation leaked: Reserved() = %d after GC, want 0", got)
	}
	if got := wd.m.Phys.FreeFrames(); got != preFree {
		t.Errorf("frame leak: %d free frames after GC, want %d", got, preFree)
	}
}

// TestEvacuationDegradesToSlideUnderPressure: the copying baseline needs a
// to-space the size of the live span; with the pool ballasted to a few
// frames the mapping fails at the watermark gate and the phase degrades to
// the in-place slide — a degenerated collection that still completes.
func TestEvacuationDegradesToSlideUnderPressure(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 8, High: 16}
	cfg := memmoveConfig()
	cfg.CopyCompact = true
	wd := newPressureWorld(t, 2<<20, 4<<20, wm, cfg.Policy, fault.Plan{})
	c := New("evac-tight", wd.h, wd.roots, cfg)

	buildGraph(wd, 40)
	ballastToFree(t, wd, wm.Min+reserveFrames)

	pause, err := c.Collect(wd.ctx, gc.CauseExplicit)
	if err != nil {
		t.Fatalf("degenerated evacuation failed: %v", err)
	}
	wd.verify()
	if wd.ctx.Perf.EvacFailures == 0 {
		t.Error("to-space mapping unexpectedly succeeded with the pool at the watermark")
	}
	if pause.Degraded == 0 {
		t.Error("degenerated evacuation not reflected in PauseInfo.Degraded")
	}
}

// TestEvacuationWithHeadroomCopies: with ample physical memory the same
// configuration evacuates through to-space — no degradation, and the copy
// traffic is roughly twice the slide's (out to the image plus home again).
func TestEvacuationWithHeadroomCopies(t *testing.T) {
	cfg := memmoveConfig()
	cfg.CopyCompact = true
	wd := newWorld(t, 2<<20, cfg.Policy)
	c := New("evac-roomy", wd.h, wd.roots, cfg)

	buildGraph(wd, 40)
	pause, err := c.Collect(wd.ctx, gc.CauseExplicit)
	if err != nil {
		t.Fatalf("evacuation failed: %v", err)
	}
	wd.verify()
	if wd.ctx.Perf.EvacFailures != 0 || pause.Degraded != 0 {
		t.Errorf("unconstrained evacuation degraded: EvacFailures=%d Degraded=%d",
			wd.ctx.Perf.EvacFailures, pause.Degraded)
	}

	// Slide baseline for the same graph: evacuation must move more bytes.
	wd2 := newWorld(t, 2<<20, memmoveConfig().Policy)
	c2 := New("slide", wd2.h, wd2.roots, memmoveConfig())
	buildGraph(wd2, 40)
	pause2, err := c2.Collect(wd2.ctx, gc.CauseExplicit)
	if err != nil {
		t.Fatal(err)
	}
	wd2.verify()
	if pause.MovedBytes <= pause2.MovedBytes {
		t.Errorf("evacuation moved %d bytes, slide moved %d; evacuation should cost more copy traffic",
			pause.MovedBytes, pause2.MovedBytes)
	}
}
