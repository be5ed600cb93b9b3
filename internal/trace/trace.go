// Package trace is the machine-wide observability layer: an
// always-compiled, off-by-default event and metrics subsystem threaded
// through machine.Context. When enabled, every interesting simulated
// operation — system-call entry/exit, per-page and PMD-granular swaps,
// PTE-lock critical sections, TLB flushes and shootdowns with their IPI
// fan-out, bus transfers, and GC phase transitions — is recorded as a
// structured Event in a per-context ring buffer. The buffers merge by
// simulated clock into a Chrome trace_event JSON file (chrome.go) and
// aggregate into a Prometheus-style text snapshot (metrics.go). The
// snapshot reads every count from the contexts' sim.Perf, the same
// counters the figures print; the tracer adds only what Perf does not
// hold: events by kind, four histograms, faults by site, and the ring's
// dropped and spilled counts.
//
// Cost discipline: a disabled tracer is a nil *Buffer on the context, and
// every Emit call starts with a nil-receiver check, so the fast path is a
// predicted branch and zero allocations (trace_test.go asserts this with
// testing.AllocsPerRun). Emission sites on per-page hot paths additionally
// guard with `if ctx.Trace != nil` so they do not even read the clock.
//
// Ownership discipline mirrors sim.Perf: each simulated thread owns its
// Buffer and writes it without locks; the Tracer's registry is touched
// only when a buffer is created and when results are drained, which
// happens after the simulated work completes.
package trace

import (
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Kind classifies an event. The set covers the attribution the paper's
// evaluation figures need: where pause time goes (phases, spans), what the
// kernel did (syscalls, swap granularity, locks), and what the coherence
// traffic was (flushes, shootdowns, bus transfers).
type Kind uint8

const (
	// KindSyscall spans one kernel entry/exit (SwapVA, SwapVAVec).
	// Arg1 = page count (SwapVA) or request count (SwapVAVec).
	KindSyscall Kind = iota
	// KindSwapReq spans one applied swap request inside a syscall.
	// Arg1 = pages, Arg2 = destination VA. Feeds the swap-size histogram.
	KindSwapReq
	// KindSwapPage spans one per-page PTE exchange. Arg1/Arg2 = the VAs.
	KindSwapPage
	// KindSwapPMD spans one 2 MiB PMD-entry exchange (512 pages).
	// Arg1/Arg2 = the VAs.
	KindSwapPMD
	// KindPTELock spans one PTE-table lock critical section.
	// Arg1/Arg2 = the two table allocation IDs. Feeds the lock-hold
	// histogram.
	KindPTELock
	// KindFlushLocal is a whole-ASID local TLB flush. Arg1 = ASID.
	KindFlushLocal
	// KindFlushPage is a single-page local invalidation. Arg1 = VPN.
	KindFlushPage
	// KindShootdown is an all-core IPI broadcast. Arg1 = IPI fan-out
	// (cores - 1), Arg2 = how many of those targets sat on another socket
	// (0 on a flat machine). Feeds the shootdown-interval histogram.
	KindShootdown
	// KindBus spans one bulk memory transfer (Memmove). Arg1 = bytes.
	KindBus
	// KindPhase spans a GC phase or a whole pause on the driving context.
	KindPhase
	// KindSpan is one worker's busy interval within a GC phase.
	// Arg1 = worker index.
	KindSpan
	// KindFault is one injected fault firing (internal/fault).
	// Arg1 = FaultSite, Arg2 = site-specific detail (faulting VA for
	// kernel sites, unacked-target count for IPI ack timeouts).
	KindFault
	// KindRetry is one EAGAIN-style retry of a failed swap, including the
	// backoff charged to the clock as Dur. Arg1 = attempt number (1-based),
	// Arg2 = source VA.
	KindRetry
	// KindFallback is one move degraded to a slower path: a swap to byte
	// copy (swap-fallback-memmove, the only one Perf.SwapFallbacks
	// counts), an overlapping swap to the pairwise body, or an
	// evacuation to an in-place slide. Arg1 = pages, Arg2 = a VA.
	KindFallback
	// KindRollback is one transactional undo of a partially applied swap
	// request. Arg1 = undo operations replayed, Arg2 = request VA1.
	KindRollback
	// KindPressure is a memory-pressure event: an allocation stall,
	// emergency-GC trigger, or fail-fast refusal. Arg1 = pressure level,
	// Arg2 = available frames at the event.
	KindPressure
	// KindWatchdog is a GC-watchdog deadline expiry. Arg1 = elapsed ns in
	// the stuck phase, Arg2 = the armed deadline ns.
	KindWatchdog
	// KindSwapOut spans one reclaim batch writing cold pages to the swap
	// tier. Arg1 = pages written out, Arg2 = pages discarded as zero-fill.
	KindSwapOut
	// KindSwapIn spans one demand fault bringing a swapped page back to
	// residence (major fault). Arg1 = 1 (pages), Arg2 = the faulting VA.
	KindSwapIn
	// KindReclaim spans one reclaimer activation (a kswapd wakeup or a
	// direct-reclaim episode). Arg1 = frames freed, Arg2 = 1 for direct
	// reclaim, 0 for the background (kswapd) path.
	KindReclaim
	// KindApp spans an application-level episode above the GC: a jvm
	// allocation episode that triggered collections, an arbiter admission
	// wait, or an SMR election/replay/commit interval. Arg1/Arg2 are
	// span-specific (GC count for alloc episodes, tenant/term indices for
	// SMR events).
	KindApp

	numKinds = int(KindApp) + 1
)

// String returns the stable lower-case name used in metrics labels and
// Chrome categories.
func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindSwapReq:
		return "swap_req"
	case KindSwapPage:
		return "swap_page"
	case KindSwapPMD:
		return "swap_pmd"
	case KindPTELock:
		return "pte_lock"
	case KindFlushLocal:
		return "flush_local"
	case KindFlushPage:
		return "flush_page"
	case KindShootdown:
		return "shootdown"
	case KindBus:
		return "bus"
	case KindPhase:
		return "phase"
	case KindSpan:
		return "span"
	case KindFault:
		return "fault"
	case KindRetry:
		return "retry"
	case KindFallback:
		return "fallback"
	case KindRollback:
		return "rollback"
	case KindPressure:
		return "pressure"
	case KindWatchdog:
		return "watchdog"
	case KindSwapOut:
		return "swap_out"
	case KindSwapIn:
		return "swap_in"
	case KindReclaim:
		return "reclaim"
	case KindApp:
		return "app"
	default:
		return "unknown"
	}
}

// FaultSite identifies one injectable failure point in the simulated
// machine. The enum lives here (not in internal/fault) so the trace layer
// can label per-site counters without importing the injector.
type FaultSite uint8

const (
	// FaultPTELockStall delays a PTE-table lock acquisition.
	FaultPTELockStall FaultSite = iota
	// FaultIPIAck drops a TLB-shootdown IPI ack, forcing an ack-timeout
	// wait and a bounded-backoff re-send.
	FaultIPIAck
	// FaultSwapTransient fails a SwapVA request mid-body with a retryable
	// EAGAIN-style error.
	FaultSwapTransient
	// FaultFramePoison marks a physical frame ECC-bad: swaps touching it
	// fail permanently and the GC must degrade to byte copy.
	FaultFramePoison
	// FaultInterconnect is a NUMA interconnect brownout: cross-socket
	// latency and bandwidth costs degrade for the affected access.
	FaultInterconnect
	// FaultFarWrite fails a write to the far (NVMe) swap tier with a
	// transient device error: a reclaim write-back skips the page (it
	// stays resident), and a SwapVA touching a swapped PTE aborts and
	// rolls back through the transaction log.
	FaultFarWrite
	// FaultArbiterStall delays a GC-arbiter admission decision: the
	// requesting tenant's collection start is pushed back as if the
	// arbiter's bookkeeping lock were contended.
	FaultArbiterStall

	NumFaultSites = int(FaultArbiterStall) + 1
)

// String returns the stable site name used in metrics labels and fault
// plans.
func (s FaultSite) String() string {
	switch s {
	case FaultPTELockStall:
		return "pte_lock_stall"
	case FaultIPIAck:
		return "ipi_ack"
	case FaultSwapTransient:
		return "swap_transient"
	case FaultFramePoison:
		return "frame_poison"
	case FaultInterconnect:
		return "interconnect"
	case FaultFarWrite:
		return "far_write"
	case FaultArbiterStall:
		return "arbiter_stall"
	default:
		return "unknown"
	}
}

// Category groups kinds for the Chrome trace "cat" field.
func (k Kind) Category() string {
	switch k {
	case KindSyscall, KindSwapReq, KindSwapPage, KindSwapPMD, KindPTELock,
		KindRollback:
		return "kernel"
	case KindFault, KindRetry, KindFallback:
		return "fault"
	case KindPressure, KindWatchdog:
		return "pressure"
	case KindSwapOut, KindSwapIn, KindReclaim:
		return "reclaim"
	case KindFlushLocal, KindFlushPage, KindShootdown:
		return "tlb"
	case KindBus:
		return "bus"
	case KindPhase, KindSpan:
		return "gc"
	case KindApp:
		return "app"
	default:
		return "other"
	}
}

// Event is one recorded occurrence. TS and Dur are simulated nanoseconds
// from the emitting context's clock; Name is a static string (emission
// sites must not format names, so recording never allocates).
type Event struct {
	TS   sim.Time
	Dur  sim.Time
	Kind Kind
	Core int
	TID  int
	Name string
	Arg1 uint64
	Arg2 uint64
}

// DefaultEventsPerContext bounds each context's ring buffer (about 512 KiB
// of events per context at 64 bytes each). Old events are overwritten and
// counted as dropped.
const DefaultEventsPerContext = 8192

// Buffer is the per-context event sink. A nil *Buffer is the disabled
// tracer: every method is nil-safe and the emit path returns immediately.
// A Buffer is owned by one simulated thread, exactly like the context's
// sim.Perf counters, which it keeps for the metric snapshot.
type Buffer struct {
	tid  int
	core int
	cap  int
	perf *sim.Perf

	events []Event // grows lazily up to cap, then becomes a ring
	next   int     // oldest slot once the ring is full

	// spill, when non-nil, streams a full buffer out instead of wrapping
	// the ring (see Tracer.SetSpill).
	spill   *spillSink
	spilled uint64

	emitted uint64
	dropped uint64

	m bufMetrics
}

// Enabled reports whether events are being recorded. Hot paths use it to
// skip even the clock reads that feed an Emit call.
func (b *Buffer) Enabled() bool { return b != nil }

// Emit records one event. start/dur are the simulated interval; a1/a2 are
// kind-specific (see the Kind constants). Nil-safe: the disabled path is a
// single predicted branch and performs no allocation.
func (b *Buffer) Emit(k Kind, name string, start, dur sim.Time, a1, a2 uint64) {
	if b == nil {
		return
	}
	ev := Event{TS: start, Dur: dur, Kind: k, Core: b.core, TID: b.tid,
		Name: name, Arg1: a1, Arg2: a2}
	if len(b.events) < b.cap {
		b.events = append(b.events, ev)
	} else if b.spill != nil {
		// Streaming mode: drain the full ring to the sink and start over.
		// Nothing is lost, so dropped stays zero.
		b.spill.write(b.events)
		b.spilled += uint64(len(b.events))
		b.events = b.events[:0]
		b.events = append(b.events, ev)
	} else {
		b.events[b.next] = ev
		b.next++
		if b.next == b.cap {
			b.next = 0
		}
		b.dropped++
	}
	b.emitted++
	b.m.observe(k, dur, a1, start)
}

// ObserveFault counts one injected fault without recording an event.
// Interconnect brownouts fire on the per-access NUMA charge path, far too
// hot for ring-buffer events, so they update only the fixed-size per-site
// counters. Nil-safe like Emit.
func (b *Buffer) ObserveFault(site FaultSite) {
	if b == nil {
		return
	}
	if int(site) < NumFaultSites {
		b.m.faultBySite[site]++
	}
}

// ObserveLockWait records one PTE-lock queueing delay (simulated ns spent
// waiting behind another context's critical section) without recording an
// event. Lock acquisitions sit on the per-page kernel hot path, so this
// updates only the fixed-size aggregate histogram. Nil-safe like Emit.
func (b *Buffer) ObserveLockWait(waitNs sim.Time) {
	if b == nil {
		return
	}
	b.m.lockWait.observe(uint64(waitNs))
}

// drain returns the buffered events oldest-first.
func (b *Buffer) drain() []Event {
	if len(b.events) < b.cap || b.next == 0 {
		return append([]Event(nil), b.events...)
	}
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	return append(out, b.events[:b.next]...)
}

// Tracer is the machine-wide registry of per-context buffers. One Tracer
// serves one simulated machine and, like it, is driven by one host
// goroutine; merging and metric aggregation happen at snapshot time so the
// emit path stays a ring append.
type Tracer struct {
	perBuf int
	bufs   []*Buffer
	spill  *spillSink // nil unless SetSpill enabled streaming mode
}

// New builds a tracer. eventsPerContext bounds each context's ring buffer;
// <= 0 selects DefaultEventsPerContext.
func New(eventsPerContext int) *Tracer {
	if eventsPerContext <= 0 {
		eventsPerContext = DefaultEventsPerContext
	}
	return &Tracer{perBuf: eventsPerContext}
}

// NewBuffer registers and returns a buffer for a context running on the
// given core whose counters are perf. Called by machine.NewContext.
func (t *Tracer) NewBuffer(core int, perf *sim.Perf) *Buffer {
	b := &Buffer{tid: len(t.bufs) + 1, core: core, cap: t.perBuf, perf: perf, spill: t.spill}
	t.bufs = append(t.bufs, b)
	return b
}

// Merge returns every buffered event across all contexts, ordered by
// simulated timestamp (ties broken by TID, then per-buffer emission
// order). Call it after the simulated work has completed.
func (t *Tracer) Merge() []Event {
	var all []Event
	for _, b := range t.bufs {
		all = append(all, b.drain()...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].TS != all[j].TS {
			return all[i].TS < all[j].TS
		}
		return all[i].TID < all[j].TID
	})
	return all
}

// histBuckets is the bucket count of the power-of-two histograms: bucket b
// counts values whose integer bit length is b, i.e. v in [2^(b-1), 2^b).
const histBuckets = 40

// hist is a lock-free power-of-two histogram owned by one buffer.
type hist struct {
	counts [histBuckets]uint64
	sum    float64
	n      uint64
}

func (h *hist) observe(v uint64) {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b]++
	h.sum += float64(v)
	h.n++
}

// bufMetrics is the per-buffer aggregate state updated on every emit:
// what the context's sim.Perf does not count. Everything is fixed-size so
// the enabled emit path allocates nothing.
type bufMetrics struct {
	kindCount   [numKinds]uint64
	faultBySite [NumFaultSites]uint64 // KindFault Arg1, and ObserveFault
	swapPages   hist                  // KindSwapReq: request size in pages
	lockHold    hist                  // KindPTELock: critical-section ns
	lockWait    hist                  // ObserveLockWait: ns queued behind a PTE lock
	sdGap       hist                  // KindShootdown: ns since this context's previous one
	lastSD      sim.Time
	hasSD       bool
}

func (m *bufMetrics) observe(k Kind, dur sim.Time, a1 uint64, ts sim.Time) {
	m.kindCount[k]++
	switch k {
	case KindSwapReq:
		m.swapPages.observe(a1)
	case KindPTELock:
		m.lockHold.observe(uint64(dur))
	case KindShootdown:
		if m.hasSD {
			m.sdGap.observe(uint64(ts - m.lastSD))
		}
		m.lastSD = ts
		m.hasSD = true
	case KindFault:
		if a1 < uint64(NumFaultSites) {
			m.faultBySite[a1]++
		}
	}
}
