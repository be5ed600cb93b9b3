package jvm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

func pressureMachine(t *testing.T, physBytes int64, wm mem.Watermarks) *machine.Machine {
	t.Helper()
	return machine.MustNew(machine.Config{
		Cost:       sim.XeonGold6130(),
		PhysBytes:  physBytes,
		Watermarks: wm,
	})
}

// ballast maps single pages in a throwaway address space until at most
// target frames are free, returning the mapped addresses for release.
func ballast(t *testing.T, m *machine.Machine, as *mmu.AddressSpace, target int) []uint64 {
	t.Helper()
	var vas []uint64
	for m.Phys.FreeFrames() > target {
		va, err := as.MapRegion(1)
		if err != nil {
			t.Fatalf("ballast at %d free frames (target %d): %v",
				m.Phys.FreeFrames(), target, err)
		}
		vas = append(vas, va)
	}
	return vas
}

// TestLowWatermarkStallsAndRunsEmergencyGC: crossing the low watermark
// stalls the next allocation and triggers exactly one emergency collection
// per pressure episode — repeated allocations while still between low and
// high must not re-collect (hysteresis).
func TestLowWatermarkStallsAndRunsEmergencyGC(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 12, High: 24}
	m := pressureMachine(t, 4<<20, wm)
	j, err := New(m, svagcConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)

	// Unpressured allocation: no stall, no emergency collection.
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.PressureStalls != 0 {
		t.Fatal("stall recorded with the pool unpressured")
	}

	ballast(t, m, m.NewAddressSpace(), wm.Low)
	if got := m.Phys.PressureLevel(); got != mem.PressureLow {
		t.Fatalf("pressure level %s after ballast, want low", got)
	}

	clock0 := th.Ctx.Clock.Now()
	gcs0 := j.GCCount("")
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatalf("allocation at the low watermark should stall, not fail: %v", err)
	}
	if th.Ctx.Perf.PressureStalls != 1 || th.Ctx.Perf.EmergencyGCs != 1 {
		t.Errorf("stalls=%d emergencyGCs=%d, want 1 and 1",
			th.Ctx.Perf.PressureStalls, th.Ctx.Perf.EmergencyGCs)
	}
	if th.Ctx.Clock.Now() < clock0+pressureStallNs {
		t.Error("mutator clock not charged the direct-reclaim stall")
	}
	if j.GCCount("") != gcs0+1 {
		t.Errorf("GC count %d, want %d", j.GCCount(""), gcs0+1)
	}
	stats := j.GC.Stats()
	if cause := stats.Pauses[len(stats.Pauses)-1].Cause; cause != gc.CauseMemoryPressure {
		t.Errorf("emergency collection recorded cause %s, want memory pressure", cause)
	}

	// The heap stays fully mapped, so the episode persists: further
	// allocations must ride the disarmed trigger without re-collecting.
	for i := 0; i < 5; i++ {
		if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	if th.Ctx.Perf.EmergencyGCs != 1 {
		t.Errorf("hysteresis broken: %d emergency collections within one episode",
			th.Ctx.Perf.EmergencyGCs)
	}
}

// TestMinWatermarkFailsFastWithReport: at the min watermark Alloc refuses
// immediately with a structured *PressureError carrying the OOM-killer-
// style frame report.
func TestMinWatermarkFailsFastWithReport(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 8, High: 16}
	m := pressureMachine(t, 4<<20, wm)
	j, err := New(m, svagcConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)

	ballast(t, m, m.NewAddressSpace(), wm.Min)
	_, allocErr := th.Alloc(heap.AllocSpec{Payload: 4096})
	if allocErr == nil {
		t.Fatal("allocation at the min watermark succeeded")
	}
	if !errors.Is(allocErr, ErrMemoryPressure) {
		t.Fatalf("error does not unwrap to ErrMemoryPressure: %v", allocErr)
	}
	var pe *PressureError
	if !errors.As(allocErr, &pe) {
		t.Fatalf("error is not a *PressureError: %v", allocErr)
	}
	if pe.Level != mem.PressureMin {
		t.Errorf("Level = %s, want min", pe.Level)
	}
	if len(pe.Report.Top) == 0 {
		t.Error("report names no address-space consumers")
	}
	msg := allocErr.Error()
	for _, want := range []string{"phys:", "asid", "pressure min", "watermarks"} {
		if !strings.Contains(msg, want) {
			t.Errorf("fail-fast report missing %q:\n%s", want, msg)
		}
	}
	// Fail-fast must not have run a collection.
	if th.Ctx.Perf.EmergencyGCs != 0 {
		t.Error("fail-fast path ran an emergency collection")
	}
}

// TestPressureRearmAboveHigh: releasing ballast above the high watermark
// re-arms the emergency trigger, so a second pressure episode collects
// again.
func TestPressureRearmAboveHigh(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 12, High: 24}
	m := pressureMachine(t, 4<<20, wm)
	j, err := New(m, svagcConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	bAS := m.NewAddressSpace()

	vas := ballast(t, m, bAS, wm.Low)
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.EmergencyGCs != 1 {
		t.Fatalf("first episode: %d emergency collections, want 1", th.Ctx.Perf.EmergencyGCs)
	}

	// Release the episode: free ballast until well above High.
	for _, va := range vas {
		bAS.Unmap(va, 1, true)
	}
	if free := m.Phys.FreeFrames(); free <= wm.High {
		t.Fatalf("only %d frames free after releasing ballast, need > High (%d)", free, wm.High)
	}
	// This allocation observes recovery and re-arms the trigger.
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}

	ballast(t, m, bAS, wm.Low)
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.EmergencyGCs != 2 {
		t.Errorf("second episode: %d emergency collections total, want 2", th.Ctx.Perf.EmergencyGCs)
	}
}

// TestSwapPressureRungs drives checkPressure's swap-armed rungs through
// Thread.Alloc: a heap four times the RAM, backed by a zpool too small to
// absorb it and no far tier, fills with rooted pages. Between the low and
// min watermarks reclaimStall wakes kswapd; when that cannot restore
// headroom the emergency collection runs; at min the allocating thread
// reclaims directly before the allocation is refused.
func TestSwapPressureRungs(t *testing.T) {
	m := machine.MustNew(machine.Config{
		Cost:      sim.XeonGold6130(),
		PhysBytes: 2 << 20,
		Swap:      swaptier.Config{ZpoolBytes: 4 << 10},
	})
	tr := m.EnableTracing(0)
	j, err := New(m, svagcConfig(8<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	page := make([]byte, 4096)
	var allocErr error
	allocs := 0
	for allocs < 2000 {
		r, err := th.AllocRooted(heap.AllocSpec{Payload: len(page)})
		if err != nil {
			allocErr = err
			break
		}
		allocs++
		for i := range page {
			page[i] = byte(allocs + i)
		}
		if err := j.Heap.WritePayload(th.Ctx, r.Obj, 0, 0, page); err != nil {
			t.Fatalf("payload write %d: %v", allocs, err)
		}
	}
	var pe *PressureError
	if !errors.As(allocErr, &pe) || pe.Level != mem.PressureMin {
		t.Fatalf("allocation %d: %v, want a *PressureError at level min", allocs+1, allocErr)
	}
	if allocs != 500 {
		t.Errorf("%d allocations succeeded before fail-fast, want 500", allocs)
	}
	p := j.TotalPerf()
	// Five reclaim stalls, two emergency collections and one direct
	// reclaim: eight stalls in all.
	if p.PressureStalls != 8 || p.EmergencyGCs != 2 || p.DirectReclaims != 1 {
		t.Errorf("PressureStalls/EmergencyGCs/DirectReclaims = %d/%d/%d, want 8/2/1",
			p.PressureStalls, p.EmergencyGCs, p.DirectReclaims)
	}
	names := map[string]int{}
	for _, ev := range tr.Merge() {
		names[ev.Name]++
		if ev.Name == "pressure:reclaim-stall" && ev.Dur < pressureStallNs {
			t.Errorf("reclaim stall charged %v, want at least %v", ev.Dur, pressureStallNs)
		}
	}
	for name, want := range map[string]int{
		"pressure:reclaim-stall":  5,
		"pressure:emergency-gc":   2,
		"pressure:direct-reclaim": 1,
		"pressure:fail-fast":      1,
	} {
		if names[name] != want {
			t.Errorf("%d %q events, want %d", names[name], name, want)
		}
	}
}
