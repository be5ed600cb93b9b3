package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/gc/lisp2"
	"repro/internal/gc/svagc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestKernelEventsEndToEnd drives the real kernel under an enabled tracer
// and checks the event stream a user would see.
func TestKernelEventsEndToEnd(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	tr := m.EnableTracing(0)
	k := kernel.New(m)
	as := m.NewAddressSpace()
	ctx := m.NewContext(0)

	a, _ := as.MapRegion(8)
	b, _ := as.MapRegion(8)
	if err := k.SwapVA(ctx, as, a, b, 8, kernel.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	counts := map[trace.Kind]int{}
	var last sim.Time
	for _, ev := range tr.Merge() {
		counts[ev.Kind]++
		if ev.TS < last {
			t.Fatalf("merge out of order at %v after %v", ev.TS, last)
		}
		last = ev.TS
	}
	if counts[trace.KindSyscall] != 1 {
		t.Errorf("syscall events = %d, want 1", counts[trace.KindSyscall])
	}
	if counts[trace.KindSwapReq] != 1 {
		t.Errorf("swap-req events = %d, want 1", counts[trace.KindSwapReq])
	}
	if counts[trace.KindSwapPage] != 8 || counts[trace.KindPTELock] != 8 {
		t.Errorf("page/lock events = %d/%d, want 8/8",
			counts[trace.KindSwapPage], counts[trace.KindPTELock])
	}
	if counts[trace.KindShootdown] != 1 {
		t.Errorf("shootdown events = %d, want 1", counts[trace.KindShootdown])
	}

	s := trace.SnapshotOf(tr)
	if s.SwapPages.Count != 1 || s.SwapPages.Sum != 8 {
		t.Errorf("swap size histogram: count=%d sum=%g, want 1/8",
			s.SwapPages.Count, s.SwapPages.Sum)
	}
	if s.Perf != *ctx.Perf || s.Perf.IPIsSent != uint64(m.NumCores()-1) {
		t.Errorf("snapshot counters %+v, want the context's %+v with %d IPIs",
			s.Perf, *ctx.Perf, m.NumCores()-1)
	}
}

// TestGCPhaseEventsEndToEnd runs a real collection under tracing and
// requires all four LISP2 phases plus the pause bracket in the output —
// the same property the CLI acceptance check relies on.
func TestGCPhaseEventsEndToEnd(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	tr := m.EnableTracing(0)
	sc := svagc.Config{Workers: 2}
	j, err := jvm.New(m, jvm.Config{
		HeapBytes: 8 << 20,
		Policy:    svagc.Policy(sc),
		NewCollector: func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
			return svagc.New(h, roots, sc)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	var keep *gc.Root
	for i := 0; i < 200; i++ {
		r, err := th.AllocRooted(heap.AllocSpec{Payload: 8 << 10, Class: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if keep != nil {
				j.Roots.Remove(keep)
			}
			keep = r
		}
	}
	if _, err := j.CollectNow(); err != nil {
		t.Fatal(err)
	}

	phases := map[string]int{}
	spans := 0
	for _, ev := range tr.Merge() {
		switch ev.Kind {
		case trace.KindPhase:
			phases[ev.Name]++
		case trace.KindSpan:
			spans++
		}
	}
	for _, name := range []string{"mark", "forward", "adjust", "compact"} {
		if phases[name] == 0 {
			t.Errorf("no %q phase event recorded", name)
		}
	}
	if spans == 0 {
		t.Error("no per-worker span or pause events recorded")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("GC trace JSON does not parse: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("GC trace is empty")
	}
}

// TestDisabledTracingIsInert checks the off-by-default contract at the
// machine level: no tracer, nil context buffers, kernel runs unchanged.
func TestDisabledTracingIsInert(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	if m.Tracer() != nil {
		t.Fatal("machine has a tracer without EnableTracing")
	}
	ctx := m.NewContext(0)
	if ctx.Trace.Enabled() {
		t.Fatal("context buffer enabled without EnableTracing")
	}
	k := kernel.New(m)
	as := m.NewAddressSpace()
	a, _ := as.MapRegion(4)
	b, _ := as.MapRegion(4)
	if err := k.SwapVA(ctx, as, a, b, 4, kernel.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if ctx.Perf.PagesSwapped != 4 {
		t.Errorf("kernel misbehaved with tracing disabled: %d pages", ctx.Perf.PagesSwapped)
	}
}

// TestMinorAndConcurrentMarkPhaseEvents covers the two phase events the
// full-collection path never emits: the remembered-set scan of a minor
// range collection and the out-of-pause concurrent marking span.
func TestMinorAndConcurrentMarkPhaseEvents(t *testing.T) {
	phasesOf := func(tr *trace.Tracer) map[string]trace.Event {
		out := map[string]trace.Event{}
		for _, ev := range tr.Merge() {
			if ev.Kind == trace.KindPhase {
				out[ev.Name] = ev
			}
		}
		return out
	}

	// A minor collection over [from, top) with one remembered-set holder.
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	tr := m.EnableTracing(0)
	k := kernel.New(m)
	as := m.NewAddressSpace()
	h, err := heap.New(as, k, heap.Config{
		SizeBytes: 16 << 20, Policy: core.DefaultPolicy(), ZeroOnAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	roots := &gc.RootSet{}
	c := lisp2.New("x", h, roots, lisp2.Config{Workers: 2, Policy: core.DefaultPolicy()})
	ctx := m.NewContext(0)
	old, err := h.Alloc(ctx, nil, heap.AllocSpec{NumRefs: 1, Payload: 256})
	if err != nil {
		t.Fatal(err)
	}
	roots.Add(old)
	from := h.Top()
	young, err := h.Alloc(ctx, nil, heap.AllocSpec{Payload: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRef(ctx, old, 0, young); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CollectRange(ctx, gc.CauseAllocFailure, from, gc.KindMinor,
		[]heap.Object{old}); err != nil {
		t.Fatal(err)
	}
	ev, ok := phasesOf(tr)["remset-scan"]
	if !ok {
		t.Fatal("minor collection emitted no remset-scan phase event")
	}
	if ev.Arg1 != 1 {
		t.Errorf("remset-scan holders = %d, want 1", ev.Arg1)
	}

	// A concurrent-mark collection books its marking outside the pause.
	m2 := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	tr2 := m2.EnableTracing(0)
	k2 := kernel.New(m2)
	as2 := m2.NewAddressSpace()
	h2, err := heap.New(as2, k2, heap.Config{
		SizeBytes: 16 << 20, Policy: core.MemmovePolicy(), ZeroOnAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	roots2 := &gc.RootSet{}
	c2 := lisp2.New("x", h2, roots2, lisp2.Config{
		Workers: 2, Policy: core.MemmovePolicy(), ConcurrentMark: true})
	ctx2 := m2.NewContext(0)
	for i := 0; i < 50; i++ {
		o, err := h2.Alloc(ctx2, nil, heap.AllocSpec{Payload: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			roots2.Add(o)
		}
	}
	if _, err := c2.Collect(ctx2, gc.CauseExplicit); err != nil {
		t.Fatal(err)
	}
	ph2 := phasesOf(tr2)
	cm, ok := ph2["concurrent-mark"]
	if !ok {
		t.Fatal("concurrent collector emitted no concurrent-mark phase event")
	}
	if cm.Dur == 0 {
		t.Error("concurrent-mark span has zero duration")
	}
	if _, ok := ph2["mark"]; !ok {
		t.Error("final-mark stub phase missing")
	}
}
