package jvm

import (
	"errors"
	"fmt"

	"repro/internal/gc"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrMemoryPressure is the sentinel under allocation failures caused by
// physical-memory backpressure (the min watermark), as opposed to heap
// exhaustion. Match with errors.Is; the concrete error is *PressureError.
var ErrMemoryPressure = errors.New("jvm: memory pressure")

// pressureStallNs is the simulated cost charged to a mutator stalled at
// the low watermark before the emergency collection runs — the direct-
// reclaim stall of a real kernel, flattened to a deterministic constant.
const pressureStallNs = sim.Time(20_000)

// PressureError is the structured fail-fast error returned when the
// machine is at the min watermark: the allocation is refused and the
// error carries an OOM-killer-style diagnostic of who holds the frames.
type PressureError struct {
	Level         mem.Pressure
	HeapOccupancy float64 // this JVM's heap fill fraction at failure
	Report        machine.MemReport
}

// Error implements error.
func (e *PressureError) Error() string {
	return fmt.Sprintf("%v (level %s, heap %.1f%% full)\n%s",
		ErrMemoryPressure, e.Level, 100*e.HeapOccupancy, e.Report)
}

// Unwrap makes errors.Is(err, ErrMemoryPressure) hold.
func (e *PressureError) Unwrap() error { return ErrMemoryPressure }

// checkPressure is the mutator backpressure hook, run once per Alloc.
// Below the low watermark the thread stalls and triggers one emergency
// collection per pressure episode (re-armed only after free frames
// recover above the high watermark — hysteresis, so a run pinned between
// low and high does not collect on every allocation). At the min
// watermark allocation fails fast with the diagnostic report. With
// watermarks disarmed, PressureLevel is a single atomic load and this is
// a no-op — the zero-pressure fast path.
func (t *Thread) checkPressure() error {
	j := t.J
	switch j.M.Phys.PressureLevel() {
	case mem.PressureMin:
		if j.M.SwapEnabled() {
			// Last resort before fail-fast: synchronous direct reclaim on
			// the allocating thread's own clock. Only if the pool is still
			// at the min watermark afterwards is the allocation refused.
			start := t.Ctx.Clock.Now()
			freed := t.Ctx.DirectReclaim()
			t.Ctx.Perf.PressureStalls++
			t.Ctx.Trace.Emit(trace.KindPressure, "pressure:direct-reclaim", start,
				t.Ctx.Clock.Since(start), uint64(mem.PressureMin), uint64(freed))
			if j.M.Phys.PressureLevel() != mem.PressureMin {
				return nil
			}
		}
		report := j.M.MemReport()
		start := t.Ctx.Clock.Now()
		t.Ctx.Trace.Emit(trace.KindPressure, "pressure:fail-fast", start, 0,
			uint64(mem.PressureMin), uint64(report.Usage.InUse))
		return &PressureError{
			Level:         mem.PressureMin,
			HeapOccupancy: j.Heap.Occupancy(),
			Report:        report,
		}
	case mem.PressureLow:
		if j.M.SwapEnabled() && j.reclaimStall(t) {
			return nil
		}
		if !j.pressureArmed {
			return nil
		}
		j.pressureArmed = false
		start := t.Ctx.Clock.Now()
		t.Ctx.Clock.Advance(pressureStallNs)
		t.Ctx.Perf.PressureStalls++
		t.Ctx.Perf.EmergencyGCs++
		t.Ctx.Trace.Emit(trace.KindPressure, "pressure:emergency-gc", start,
			pressureStallNs, uint64(mem.PressureLow), uint64(j.M.Phys.FreeFrames()))
		if _, err := j.runGC(gc.CauseMemoryPressure); err != nil {
			return err
		}
	default:
		// Re-arm the emergency trigger only after recovery above High.
		if !j.pressureArmed && j.M.Phys.FreeFrames() > j.M.Phys.Watermarks().High {
			j.pressureArmed = true
		}
	}
	return nil
}

// reclaimStall is the "reclaim in progress" state between the low and
// min watermarks when the swap plane is armed: the mutator stalls
// briefly, wakes kswapd, and continues without a collection when the
// background reclaimer restored headroom (demoting cold pages is far
// cheaper than an emergency GC). Returns true when reclaim alone
// absorbed the pressure episode; false falls through to the emergency
// collection ladder.
func (j *JVM) reclaimStall(t *Thread) bool {
	start := t.Ctx.Clock.Now()
	t.Ctx.Clock.Advance(pressureStallNs)
	t.Ctx.Perf.PressureStalls++
	freed := j.M.KickReclaim(t.Ctx.Clock.Now())
	t.Ctx.Trace.Emit(trace.KindPressure, "pressure:reclaim-stall", start,
		t.Ctx.Clock.Since(start), uint64(mem.PressureLow), uint64(freed))
	return j.M.Phys.PressureLevel() == mem.PressureNone
}
