// Package jvm ties the simulated machine, heap and a collector into a
// managed runtime: mutator threads with TLABs, allocation that triggers
// stop-the-world collection on failure, and the time/perf accounting the
// experiments report (application time vs GC pause time vs concurrent GC
// work).
//
// Mutator threads are virtual: the experiment driver runs them one after
// another on their own simulated clocks, and application execution time is
// the slowest thread's clock plus all pauses and concurrent GC work. This
// keeps every experiment deterministic.
package jvm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CollectorFactory builds a collector for a freshly created heap.
type CollectorFactory func(h *heap.Heap, roots *gc.RootSet) gc.Collector

// Config describes a JVM instance.
type Config struct {
	// HeapBytes is the heap capacity.
	HeapBytes int64
	// Policy is the allocation/move policy; it must match the collector
	// (SVAGC wants core.DefaultPolicy, the baselines core.MemmovePolicy).
	Policy core.MovePolicy
	// NewCollector builds the collector.
	NewCollector CollectorFactory
	// Threads is the mutator thread count (default 1).
	Threads int
	// BaseCore places the JVM's threads starting at this core.
	BaseCore int
	// Tenant, when non-nil, charges the JVM's mappings against a
	// per-tenant cap (machine.NewTenant), checked when heap.New maps the
	// heap. Nil — the default — is the uncapped single-tenant machine,
	// bit-identical to a build without the plane.
	Tenant *mem.Tenant
	// Arbiter, when non-nil, is the machine-wide GC admission controller:
	// every collection asks it for a start slot first, so concurrent
	// tenants' collections are bounded and latency-sensitive tenants can
	// defer noisy neighbours. Nil is the unarbitrated default.
	Arbiter *sched.Arbiter
}

// JVM is one managed-runtime instance on a machine.
type JVM struct {
	M     *machine.Machine
	K     *kernel.Kernel
	AS    *mmu.AddressSpace
	Heap  *heap.Heap
	Roots *gc.RootSet
	GC    gc.Collector

	gcCtx   *machine.Context
	threads []*Thread
	oomMax  int

	// Multi-tenant plane (nil on a zero-config machine).
	arbiter *sched.Arbiter
	name    string   // arbiter identity: tenant name, or "jvm-<asid>"
	expect  sim.Time // last pause total, the arbiter reservation estimate

	// pressureArmed gates the low-watermark emergency collection: one per
	// pressure episode, re-armed when free frames recover above the high
	// watermark (see Thread.checkPressure). True from birth so the first
	// episode always triggers.
	pressureArmed bool

	// sweepTime accumulates the post-GC swap sweep (tail discard + drain)
	// run on the GC context after each collection when the swap plane is
	// armed. Counted into AppTime like concurrent GC work.
	sweepTime sim.Time
}

// Thread is one mutator thread: a simulated execution context plus its
// TLAB and a convenience handle to the owning JVM.
type Thread struct {
	J    *JVM
	ID   int
	Ctx  *machine.Context
	TLAB heap.TLAB

	scratch []byte
}

// Scratch returns an n-byte host-side scratch buffer owned by the thread,
// growing it as needed. Contents are unspecified — callers must overwrite
// the slice before reading it — and the buffer is recycled on the next
// call, so no caller may hold it across another Scratch use.
func (t *Thread) Scratch(n int) []byte {
	if cap(t.scratch) < n {
		t.scratch = make([]byte, n)
	}
	return t.scratch[:n]
}

// New builds a JVM on m.
func New(m *machine.Machine, cfg Config) (*JVM, error) {
	if cfg.NewCollector == nil {
		return nil, fmt.Errorf("jvm: Config.NewCollector is required")
	}
	if cfg.HeapBytes <= 0 {
		return nil, fmt.Errorf("jvm: HeapBytes must be positive")
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	k := kernel.New(m)
	as := m.NewAddressSpaceFor(cfg.Tenant)
	// Under first-touch, the heap's pages belong to the socket of the JVM's
	// base core: the address space is built before any thread context runs,
	// so home it explicitly rather than defaulting to node 0.
	as.SetHome(m.Topology().SocketOf(cfg.BaseCore % m.NumCores()))
	h, err := heap.New(as, k, heap.Config{
		SizeBytes:   cfg.HeapBytes,
		Policy:      cfg.Policy,
		ZeroOnAlloc: true,
	})
	if err != nil {
		return nil, err
	}
	roots := &gc.RootSet{}
	j := &JVM{
		M:       m,
		K:       k,
		AS:      as,
		Heap:    h,
		Roots:   roots,
		GC:      cfg.NewCollector(h, roots),
		gcCtx:   m.NewContext(cfg.BaseCore % m.NumCores()),
		oomMax:  4, // minor + escalation + full may all be needed before OOM
		arbiter: cfg.Arbiter,
		name:    cfg.Tenant.Name(),

		pressureArmed: true,
	}
	if j.name == "" {
		j.name = fmt.Sprintf("jvm-%d", as.ASID)
	}
	j.threads = make([]*Thread, threads)
	for i := range j.threads {
		j.threads[i] = &Thread{
			J:   j,
			ID:  i,
			Ctx: m.NewContext((cfg.BaseCore + i) % m.NumCores()),
		}
	}
	// Mutator threads are memory streams for bus-contention purposes;
	// collections temporarily override the count with their worker count
	// (mutators are paused during STW). Each thread presses on the bus of
	// the socket it runs on — one bus total on a flat machine.
	for _, t := range j.threads {
		m.NodeBus(t.Ctx.Core.Socket).AddStreams(1)
	}
	return j, nil
}

// Threads returns the mutator thread count.
func (j *JVM) Threads() int { return len(j.threads) }

// Name returns the JVM's arbiter/tenant identity: the tenant's name, or
// "jvm-<asid>" on an untenanted instance.
func (j *JVM) Name() string { return j.name }

// Thread returns mutator thread i.
func (j *JVM) Thread(i int) *Thread { return j.threads[i] }

// CollectNow forces a collection (System.gc()).
func (j *JVM) CollectNow() (*gc.PauseInfo, error) {
	return j.runGC(gc.CauseExplicit)
}

// runGC runs one collection on the GC context and records the pause as a
// single trace event bracketing the collector's phase events. With an
// arbiter armed, admission comes first: the GC context waits out any
// deferral (advancing its clock to the granted start) before collecting,
// and releases its reservation with the actual end afterwards.
func (j *JVM) runGC(cause gc.Cause) (*gc.PauseInfo, error) {
	if j.arbiter != nil {
		now := j.gcCtx.Clock.Now()
		g := j.arbiter.Admit(j.name, now, j.expect)
		if g.Stalled {
			j.gcCtx.Perf.FaultsInjected++
			j.gcCtx.Trace.Emit(trace.KindFault, "fault:arbiter-stall", now,
				g.Waited, uint64(trace.FaultArbiterStall), 0)
		}
		if g.Waited > 0 {
			j.gcCtx.Perf.ArbiterWaits++
			j.gcCtx.Perf.ArbiterWaitNs += uint64(g.Waited)
			j.gcCtx.Clock.AdvanceTo(g.Start)
			j.gcCtx.Trace.Emit(trace.KindApp, "arbiter-wait", now, g.Waited,
				uint64(cause), 0)
		}
	}
	pause, err := j.GC.Collect(j.gcCtx, cause)
	if j.arbiter != nil {
		if err == nil {
			j.expect = pause.Total
		}
		j.arbiter.Release(j.name, j.gcCtx.Clock.Now())
	}
	if err == nil && j.gcCtx.Trace != nil {
		j.gcCtx.Trace.Emit(trace.KindSpan, "gc-pause", pause.At, pause.Total,
			pause.LiveBytes, uint64(pause.SwappedPages))
	}
	if err == nil && j.M.SwapEnabled() {
		j.postGCSweep()
	}
	return pause, err
}

// postGCSweep runs after every successful collection on a swap-armed
// machine. Two steps, both collector-agnostic because the heap is a
// linear space with everything above Top dead:
//
//  1. Discard the tail [Top, End): compaction just moved the live data
//     below Top, so frames and tier slots still backing the tail hold
//     garbage — return them (MADV_DONTNEED), which is what lets a full
//     GC empty the swap tier instead of leaving orphaned slots behind.
//  2. Drain the live prefix [Start, Top): fault swapped pages back in
//     while the pool stays above the high watermark, so post-GC mutator
//     work doesn't start with a major-fault storm.
//
// The work is charged to the GC context and accumulated into sweepTime
// (part of AppTime, like concurrent GC work).
func (j *JVM) postGCSweep() {
	start := j.gcCtx.Clock.Now()
	tail := (j.Heap.Top() + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	discarded := j.gcCtx.DiscardPages(j.AS, tail, int((j.Heap.End()-tail)>>mem.PageShift))
	drained, _ := j.gcCtx.DrainSwapped(j.AS, j.Heap.Start(),
		int((tail-j.Heap.Start())>>mem.PageShift), 0)
	d := j.gcCtx.Clock.Since(start)
	j.sweepTime += d
	if discarded+drained > 0 {
		j.gcCtx.Trace.Emit(trace.KindSpan, "swap-sweep", start, d,
			uint64(discarded), uint64(drained))
	}
}

// Alloc allocates on behalf of the thread, collecting and retrying on
// heap exhaustion. It returns an OutOfMemory error when collections
// cannot free enough space. An allocation whose retries triggered at
// least one collection is recorded as an "alloc-episode" app span, so
// Chrome timelines show the cause→pause chain end to end.
func (t *Thread) Alloc(spec heap.AllocSpec) (heap.Object, error) {
	if err := t.checkPressure(); err != nil {
		return 0, err
	}
	var start sim.Time
	if t.Ctx.Trace != nil {
		start = t.Ctx.Clock.Now()
	}
	for attempt := 0; ; attempt++ {
		o, err := t.J.Heap.Alloc(t.Ctx, &t.TLAB, spec)
		if err == nil {
			if attempt > 0 && t.Ctx.Trace != nil {
				t.Ctx.Trace.Emit(trace.KindApp, "alloc-episode", start,
					t.Ctx.Clock.Now()-start, uint64(attempt), uint64(spec.TotalBytes()))
			}
			return o, nil
		}
		if err != heap.ErrHeapFull || attempt >= t.J.oomMax {
			if err == heap.ErrHeapFull {
				return 0, fmt.Errorf("jvm: OutOfMemory allocating %d bytes after %d collections",
					spec.TotalBytes(), attempt)
			}
			return 0, err
		}
		if _, gcErr := t.J.runGC(gc.CauseAllocFailure); gcErr != nil {
			return 0, gcErr
		}
	}
}

// AllocRooted allocates and immediately registers a root for the object.
func (t *Thread) AllocRooted(spec heap.AllocSpec) (*gc.Root, error) {
	o, err := t.Alloc(spec)
	if err != nil {
		return nil, err
	}
	return t.J.Roots.Add(o), nil
}

// --- accounting -----------------------------------------------------------

// MutatorTime returns the slowest mutator thread's clock: pure application
// compute/memory time, excluding GC.
func (j *JVM) MutatorTime() sim.Time {
	var max sim.Time
	for _, t := range j.threads {
		if now := t.Ctx.Clock.Now(); now > max {
			max = now
		}
	}
	return max
}

// GCPauseTime returns the summed stop-the-world time.
func (j *JVM) GCPauseTime() sim.Time { return j.GC.Stats().TotalPause("") }

// GCConcurrentTime returns GC work done outside pauses.
func (j *JVM) GCConcurrentTime() sim.Time { return j.GC.Stats().Concurrent }

// AppTime returns end-to-end application execution time: mutator work,
// plus every pause (STW blocks all threads), plus concurrent GC work
// (which steals cores from the application), plus post-GC swap sweeps.
func (j *JVM) AppTime() sim.Time {
	return j.MutatorTime() + j.GCPauseTime() + j.GCConcurrentTime() + j.sweepTime
}

// TotalPerf aggregates perf counters over mutator threads and GC.
func (j *JVM) TotalPerf() sim.Perf {
	var p sim.Perf
	for _, t := range j.threads {
		p.Add(t.Ctx.Perf)
	}
	p.Add(j.gcCtx.Perf)
	return p
}

// GCCount returns the number of pauses of the given kind ("" = all).
func (j *JVM) GCCount(kind string) int { return j.GC.Stats().Count(kind) }
