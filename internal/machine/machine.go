// Package machine assembles the simulated multi-core computer: cores with
// private TLBs, a shared last-level cache, physical memory, a contended
// memory bus, and the inter-processor-interrupt (IPI) mechanism used for
// TLB shootdowns. It also defines Context, the per-simulated-thread handle
// that all higher layers (kernel, heap, collectors, workloads) execute
// through.
//
// A Machine is single-owner: one host goroutine drives it and everything
// it owns, and its simulated cores advance by virtual parallelism on that
// goroutine. Contention between simulated threads lives on the sim clock
// (PTE-lock busy-until marks, bus streams, the GC arbiter), never in host
// locks. Host parallelism exists only across machines.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Core is one simulated CPU core.
type Core struct {
	ID     int
	Socket int
	TLB    *mmu.TLB
}

// The shared LLC is deliberately small relative to the scaled heaps,
// preserving the paper's heap:LLC disproportion (tens of GiB of heap
// against a ~22 MiB Xeon LLC) at laptop scale.
const (
	llcBytes = 2 << 20
	llcWays  = 16 // at most cache.MaxWays
)

// Config describes a machine to build.
type Config struct {
	Cost      *sim.CostModel
	PhysBytes int64 // physical memory; <= 0 means unlimited

	// Sockets splits the cores over that many sockets, each with its own
	// DRAM node and memory bus, joined by the cost model's interconnect.
	// <= 0 means 1: the original flat machine, bit-for-bit.
	Sockets int
	// NUMAPolicy is the default page-placement policy new address spaces
	// inherit (first-touch unless overridden).
	NUMAPolicy topology.Policy
	// NUMABind is the target node of topology.PolicyBind.
	NUMABind int

	// Watermarks, when non-zero, arms the physical allocator's
	// min/low/high thresholds (requires PhysBytes > 0). The zero value —
	// the default — leaves the allocator unwatermarked and the machine
	// bit-identical to a pre-pressure-plane build.
	Watermarks mem.Watermarks

	// Swap, when enabled, arms the far-memory plane (internal/swaptier):
	// address spaces map lazily, a kswapd-style reclaimer demotes cold
	// pages below the low watermark, and non-resident pages fault back
	// in on demand. Requires PhysBytes > 0; watermarks are auto-armed at
	// the Linux-default ratios when not set explicitly. The zero value —
	// the default — is bit-identical to a machine without the plane.
	Swap swaptier.Config

	// Fault, when non-nil, arms the deterministic fault-injection plane:
	// every context created on the machine consults it at the injectable
	// sites (PTE locks, IPI acks, swap bodies, frame ECC, interconnect).
	// Nil (or a zero-rate plan) is the default healthy machine.
	Fault *fault.Injector

	// SingleDriver has no effect: every machine is driven by exactly one
	// host goroutine.
	//
	// Deprecated: machines are single-owner; leave it unset.
	SingleDriver bool
}

// Machine is the simulated computer.
type Machine struct {
	Cost *sim.CostModel
	Phys *mem.PhysMem
	LLC  *cache.Cache

	q mmu.Charges // Cost's per-access charges, quantised once

	cores []*Core
	buses []Bus // one per NUMA node; index 0 is the boot node
	topo  *topology.Topology

	numaPolicy topology.Policy
	numaBind   int

	asidNext   uint32 // ASID of the most recently created address space
	shootdowns uint64 // broadcasts since boot, all ASIDs

	// tracer, when non-nil, hands each new context an event buffer.
	tracer *trace.Tracer

	// fault, when non-nil, is the armed fault-injection plane shared by
	// every context.
	fault *fault.Injector

	// spaces is the registry of live address spaces used by
	// memory-pressure diagnostics to attribute frame usage per consumer.
	spaces []*mmu.AddressSpace

	// tenants is the registry of per-tenant memory controllers for
	// MemReport attribution. Registration order is the report order.
	tenants []*mem.Tenant

	// Far-memory plane (nil/zero when Config.Swap is disabled).
	swap      *swaptier.Tier
	reclaimer *swaptier.Reclaimer
	kswapd    *Context // lazily created background-reclaim context
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.Cost == nil {
		return nil, fmt.Errorf("machine: Config.Cost is required")
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, err
	}
	llc, err := cache.New(llcBytes, llcWays, cfg.Cost.CacheLineSize)
	if err != nil {
		return nil, err
	}
	topo, err := topology.New(topology.Config{Sockets: cfg.Sockets, Cost: cfg.Cost})
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cost:       cfg.Cost,
		q:          mmu.QuantizeCharges(cfg.Cost),
		Phys:       mem.NewPhysMem(cfg.PhysBytes),
		LLC:        llc,
		cores:      make([]*Core, cfg.Cost.Cores),
		buses:      make([]Bus, topo.Sockets()),
		topo:       topo,
		numaPolicy: cfg.NUMAPolicy,
		numaBind:   cfg.NUMABind,
		fault:      cfg.Fault,
		asidNext:   1,
	}
	m.Phys.SetNodes(topo.Sockets())
	if cfg.Swap.Enabled() {
		if err := cfg.Swap.Validate(); err != nil {
			return nil, err
		}
		if cfg.PhysBytes <= 0 {
			return nil, fmt.Errorf("machine: a swap tier needs bounded physical memory (PhysBytes)")
		}
		if !cfg.Watermarks.Enabled() {
			// The reclaimer is driven by the watermarks; arm the Linux
			// default ratios when the caller didn't choose their own.
			cfg.Watermarks = mem.DefaultWatermarks(int(cfg.PhysBytes >> mem.PageShift))
		}
		m.swap = swaptier.New(cfg.Swap, cfg.Cost)
		m.reclaimer = swaptier.NewReclaimer(m.swap, m.Phys)
	}
	if cfg.Watermarks.Enabled() {
		if err := m.Phys.SetWatermarks(cfg.Watermarks); err != nil {
			return nil, err
		}
	}
	for i := range m.cores {
		m.cores[i] = &Core{ID: i, Socket: topo.SocketOf(i), TLB: mmu.NewTLB(mmu.DefaultTLBEntries)}
	}
	for i := range m.buses {
		m.buses[i].init(cfg.Cost)
	}
	return m, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumCores returns the online core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core id.
func (m *Machine) Core(id int) *Core { return m.cores[id] }

// Bus returns the boot node's memory bus. On a single-socket machine this
// is the (only) machine-wide bus, preserving the original API; NUMA-aware
// callers use NodeBus.
func (m *Machine) Bus() *Bus { return &m.buses[0] }

// NodeBus returns the memory bus of the given NUMA node.
func (m *Machine) NodeBus(node int) *Bus { return &m.buses[node] }

// Nodes returns the NUMA node (socket) count.
func (m *Machine) Nodes() int { return len(m.buses) }

// Topology returns the machine's socket layout.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// SetActiveJVMs sets the co-running JVM multiplier on every node bus
// (co-running JVMs press on all sockets' channels and the interconnect).
func (m *Machine) SetActiveJVMs(n int) {
	for i := range m.buses {
		m.buses[i].SetActiveJVMs(n)
	}
}

// TotalStreams returns the machine-wide active stream count times the JVM
// multiplier — the load figure the interconnect contends on.
func (m *Machine) TotalStreams() int {
	total := 0
	for i := range m.buses {
		total += m.buses[i].Streams() * m.buses[i].ActiveJVMs()
	}
	return total
}

// NewAddressSpace creates a process address space with a fresh ASID,
// inheriting the machine's default page-placement policy.
func (m *Machine) NewAddressSpace() *mmu.AddressSpace {
	return m.NewAddressSpaceFor(nil)
}

// NewAddressSpaceFor is NewAddressSpace with the mappings charged to a
// tenant's cap (NewTenant). A nil tenant is the uncapped default,
// bit-identical to NewAddressSpace.
func (m *Machine) NewAddressSpaceFor(t *mem.Tenant) *mmu.AddressSpace {
	m.asidNext++
	as := mmu.NewAddressSpace(m.asidNext, m.Phys)
	as.SetPlacement(mmu.Placement{
		Policy: m.numaPolicy,
		Bind:   m.numaBind,
		Nodes:  m.topo.Sockets(),
	})
	if m.swap != nil {
		as.SetSwapper(&machineSwapper{m: m})
	}
	if t != nil {
		as.SetAccounter(t)
	}
	m.spaces = append(m.spaces, as)
	return as
}

// NewTenant creates and registers a per-tenant memory controller capped at
// capFrames. Address spaces created through NewAddressSpaceFor charge
// their mapped pages against it, and MemReport attributes usage to it.
func (m *Machine) NewTenant(name string, capFrames int) (*mem.Tenant, error) {
	t, err := mem.NewTenant(name, capFrames)
	if err != nil {
		return nil, err
	}
	m.tenants = append(m.tenants, t)
	return t, nil
}

// Shootdowns reports the number of TLB-shootdown broadcasts since boot.
func (m *Machine) Shootdowns() uint64 { return m.shootdowns }

// EnableTracing installs an event tracer on the machine; every context
// created afterwards records structured events into a per-context ring
// buffer of the given capacity (<= 0 selects the default). Call it right
// after New, before any contexts exist, so no execution goes unobserved.
// It returns the tracer for draining (Chrome JSON, metrics snapshots).
func (m *Machine) EnableTracing(eventsPerContext int) *trace.Tracer {
	m.tracer = trace.New(eventsPerContext)
	return m.tracer
}

// Tracer returns the installed tracer, or nil when tracing is disabled.
func (m *Machine) Tracer() *trace.Tracer { return m.tracer }

// FaultInjector returns the armed fault plane, or nil on a healthy
// machine.
func (m *Machine) FaultInjector() *fault.Injector { return m.fault }

// Context is the execution context of one simulated thread: its clock and
// counters, the core it currently runs on, and the charged-memory-access
// environment derived from them. Contexts are cheap; collectors create one
// per virtual worker.
type Context struct {
	mmu.Env
	M      *Machine
	Core   *Core
	Pinned bool
	// NUMAView is the context's placement-aware cost view; nil on a flat
	// (single-socket) machine. Env.NUMA aliases it for the charging layer;
	// the kernel uses it directly for remote walk and cross-node swap
	// surcharges.
	NUMAView *NUMAView
	// Fault is the machine's fault-injection plane; nil on a healthy
	// machine. All fault.Injector methods are nil-safe, so sites query it
	// without guarding.
	Fault *fault.Injector
}

// Socket returns the socket the context's core belongs to.
func (ctx *Context) Socket() int { return ctx.Core.Socket }

// NewContext creates a thread context running on the given core.
func (m *Machine) NewContext(coreID int) *Context {
	if coreID < 0 || coreID >= len(m.cores) {
		panic(fmt.Sprintf("machine: core %d out of range [0,%d)", coreID, len(m.cores)))
	}
	core := m.cores[coreID]
	ctx := &Context{M: m, Core: core, Fault: m.fault}
	bus := &m.buses[core.Socket]
	ctx.Env = mmu.Env{
		Clock:   sim.NewClock(0),
		Cost:    m.Cost,
		Q:       m.q,
		Perf:    &sim.Perf{},
		TLB:     core.TLB,
		Cache:   m.LLC,
		BW:      bus.EffectiveGBs,
		Latency: bus.LatencyFactor,
	}
	if m.tracer != nil {
		ctx.Trace = m.tracer.NewBuffer(coreID, ctx.Perf)
	}
	if !m.topo.Flat() {
		ctx.NUMAView = &NUMAView{m: m, socket: core.Socket, perf: ctx.Perf,
			buf: ctx.Trace, inj: m.fault}
		ctx.Env.NUMA = ctx.NUMAView
	}
	return ctx
}

// ChargeRun declares a strided access run on as and settles its cost in
// closed form, page segment by page segment. This is the epoch-batched
// charging entry workloads use for accesses whose data lives host-side.
func (ctx *Context) ChargeRun(as *mmu.AddressSpace, r mmu.Run) error {
	return as.ChargeRun(&ctx.Env, r)
}

// Fork creates a context sharing this one's machine but with its own clock
// and counters, placed on core (base.Core.ID + i) mod cores — the pattern
// collectors use to spread virtual workers over cores.
func (ctx *Context) Fork(i int) *Context {
	return ctx.ForkOn((ctx.Core.ID + i) % ctx.M.NumCores())
}

// ForkOn is Fork onto an explicit core — NUMA-aware collectors use it to
// pin workers to a socket.
func (ctx *Context) ForkOn(coreID int) *Context {
	nc := ctx.M.NewContext(coreID)
	nc.Clock.AdvanceTo(ctx.Clock.Now())
	return nc
}

// Pin charges the cost of pinning the thread to its current core
// (sched_setaffinity in the paper's Algorithm 4) and marks it pinned.
func (ctx *Context) Pin() {
	ctx.Clock.Advance(ctx.Cost.PinNs)
	ctx.Pinned = true
}

// Unpin releases the pin.
func (ctx *Context) Unpin() {
	ctx.Clock.Advance(ctx.Cost.PinNs)
	ctx.Pinned = false
}

// FlushLocal invalidates the calling core's TLB entries for asid and
// charges the local flush cost (flush_tlb_local).
func (ctx *Context) FlushLocal(asid uint32) {
	start := ctx.Clock.Now()
	ctx.Core.TLB.FlushASID(asid)
	ctx.Clock.Advance(ctx.Cost.TLBFlushLocalNs)
	ctx.Perf.TLBFlushLocal++
	ctx.Trace.Emit(trace.KindFlushLocal, "tlb-flush-local", start,
		ctx.Cost.TLBFlushLocalNs, uint64(asid), 0)
}

// FlushPageLocal invalidates one page translation on the calling core
// (invlpg) and charges its cost.
func (ctx *Context) FlushPageLocal(asid uint32, vpn uint64) {
	start := ctx.Clock.Now()
	ctx.Core.TLB.FlushPage(asid, vpn)
	ctx.Clock.Advance(ctx.Cost.TLBFlushPageNs)
	ctx.Perf.TLBFlushPage++
	ctx.Trace.Emit(trace.KindFlushPage, "tlb-flush-page", start,
		ctx.Cost.TLBFlushPageNs, vpn, uint64(asid))
}

// ShootdownAll performs a full TLB shootdown for asid: it flushes the
// local TLB and broadcasts IPIs to every other online core, whose TLBs
// are invalidated for that ASID (flush_tlb_all_cores in Algorithm 4 /
// the per-call broadcast in the unoptimised SwapVA). The initiating
// thread is charged the local flush plus the broadcast initiation and
// per-core acknowledgement costs; targets on another socket pay the
// interconnect-crossing IPI cost, so the broadcast grows with both core
// count and socket distance. On one socket the charge equals the flat
// machine's exactly.
func (ctx *Context) ShootdownAll(asid uint32) {
	m := ctx.M
	start := ctx.Clock.Now()
	for _, c := range m.cores {
		c.TLB.FlushASID(asid)
	}
	m.shootdowns++
	_, inter := m.topo.Fanout(ctx.Core.Socket)
	ctx.Clock.Advance(ctx.Cost.TLBFlushLocalNs +
		m.topo.ShootdownNs(ctx.Cost, ctx.Core.Socket))
	ctx.Perf.TLBFlushLocal++
	ctx.Perf.Shootdowns++
	ctx.Perf.IPIsSent += uint64(m.NumCores() - 1)
	ctx.Perf.IPIsRemote += uint64(inter)
	if ctx.Fault.Enabled(trace.FaultIPIAck) {
		ctx.shootdownAckWait(m.NumCores() - 1)
	}
	ctx.Trace.Emit(trace.KindShootdown, "tlb-shootdown", start,
		ctx.Clock.Now()-start, uint64(m.NumCores()-1), uint64(inter))
}

// shootdownAckWait models dropped shootdown-IPI acknowledgements: each of
// the targets rolls the injector; an unacked target makes the initiator
// wait out an ack timeout (doubling per round — bounded backoff) and
// re-send. After fault.MaxIPIResends rounds the kernel proceeds
// regardless: the invalidation itself was delivered above, only the ack
// bookkeeping is lost, so correctness is preserved and the cost shows up
// as pause time.
func (ctx *Context) shootdownAckWait(targets int) {
	inj := ctx.Fault
	pending := 0
	for i := 0; i < targets; i++ {
		if inj.Fire(trace.FaultIPIAck) {
			pending++
		}
	}
	for attempt := 0; pending > 0 && attempt < fault.MaxIPIResends; attempt++ {
		t0 := ctx.Clock.Now()
		wait := fault.AckTimeoutNs * sim.Time(int64(1)<<uint(attempt))
		ctx.Clock.Advance(wait)
		ctx.Perf.IPIsSent += uint64(pending)
		ctx.Perf.IPIResends += uint64(pending)
		ctx.Perf.FaultsInjected += uint64(pending)
		ctx.Trace.Emit(trace.KindFault, "fault:ipi-ack-timeout", t0, wait,
			uint64(trace.FaultIPIAck), uint64(pending))
		still := 0
		for i := 0; i < pending; i++ {
			if inj.Fire(trace.FaultIPIAck) {
				still++
			}
		}
		pending = still
	}
}
