package mmu

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Env carries everything a simulated thread needs to perform charged
// memory accesses: its clock, the machine cost model, its perf counters,
// the TLB of the core it runs on, the shared cache, and the bus's current
// effective bandwidth. The machine layer embeds Env in its per-thread
// Context; bare Envs are convenient in unit tests.
type Env struct {
	Clock *sim.Clock
	Cost  *sim.CostModel
	// Q is Cost's per-access charges, quantised once (QuantizeCharges):
	// the word-access and run-settlement paths add them to the clock as
	// integers instead of re-quantising the same float64 on every access.
	// NewEnv and machine.NewContext fill it; a hand-built Env must too,
	// or its TLB and LLC hits and walks cost nothing.
	Q     Charges
	Perf  *sim.Perf
	TLB   *TLB
	Cache *cache.Cache   // nil disables cache simulation (latency = DRAM)
	BW    func() float64 // effective per-stream GB/s; nil → Cost.StreamBWGBs
	// Latency scales latency-bound DRAM accesses for bus contention;
	// nil means no contention (factor 1).
	Latency func() float64
	// NUMA, when non-nil, resolves access costs per physical address
	// through the machine topology (socket-local DRAM vs a trip across
	// the interconnect). It replaces the flat BW/Latency hooks above for
	// every charged access; a flat (single-socket) machine leaves it nil,
	// keeping the original cost behaviour bit-for-bit.
	NUMA NUMA
	// Trace is the context's event ring (nil when tracing is off —
	// trace.Buffer methods are nil-safe). Every layer emits through it;
	// sites on per-page hot paths guard with Trace != nil so they do not
	// even read the clock.
	Trace *trace.Buffer
}

// NUMA is the placement-aware cost view a multi-socket machine installs on
// each context's Env. Implementations may count local/remote traffic as a
// side effect (the machine layer feeds the Env's perf counters).
type NUMA interface {
	// LatencyAt returns the contended latency (ns) of one latency-bound
	// DRAM access to physical address pa, before the NVM write multiplier.
	LatencyAt(pa uint64) float64
	// BWAt returns the effective streaming bandwidth (GB/s) for an n-byte
	// sequential transfer touching physical address pa.
	BWAt(pa uint64, n int) float64
	// LocalAt reports whether pa resolves to the caller's own node. It
	// must not count an access: batched settlement uses it to route each
	// page segment — node-local pages settle in closed form, cross-socket
	// streams fall back to the exact per-word path (the run API's
	// contention boundary).
	LocalAt(pa uint64) bool
	// LatencyAtN is the interconnect batch entry: it accounts n
	// same-page latency-bound accesses (n >= 1) exactly as n LatencyAt
	// calls would — counters included — and returns the shared per-access
	// latency. Only called for node-local pages, where the factor is
	// constant across a run segment.
	LatencyAtN(pa uint64, n int) float64
}

// Charges is a cost model's fixed per-access charges on the clock's grid.
// The machine layer quantises them once per machine and every context's
// Env carries a copy.
type Charges struct {
	TLBHit   sim.Ticks // CostModel.TLBHitNs
	CacheHit sim.Ticks // CostModel.CacheHitNs
	Walk     sim.Ticks // CostModel.WalkNs()
}

// QuantizeCharges quantises cost's per-access charges. It panics if one
// lies outside sim.ToTicks' [0, 2^31) ns, a model machine.New rejects
// first (sim.CostModel.Validate).
func QuantizeCharges(cost *sim.CostModel) Charges {
	return Charges{
		TLBHit:   sim.ToTicks(cost.TLBHitNs),
		CacheHit: sim.ToTicks(cost.CacheHitNs),
		Walk:     sim.ToTicks(cost.WalkNs()),
	}
}

// NewEnv builds a self-contained Env (own clock, counters and TLB) for the
// given cost model — the fixture used throughout the unit tests.
func NewEnv(cost *sim.CostModel) *Env {
	return &Env{
		Clock: sim.NewClock(0),
		Cost:  cost,
		Q:     QuantizeCharges(cost),
		Perf:  &sim.Perf{},
		TLB:   NewTLB(DefaultTLBEntries),
	}
}

func (e *Env) bandwidth() float64 {
	if e.BW != nil {
		return e.BW()
	}
	return e.Cost.StreamBWGBs
}

// chargeWordAccess accounts for one latency-bound (random) access to the
// line holding physical address pa. Stores to non-volatile memory pay
// the model's write multiplier on a miss.
func (e *Env) chargeWordAccess(pa uint64, write bool) {
	e.Perf.CacheRefs++
	if e.Cache != nil && e.Cache.Access(pa) {
		e.Clock.AdvanceTicks(e.Q.CacheHit)
		return
	}
	e.chargeWordMiss(pa, write)
}

// chargeWordMiss charges one latency-bound access that missed the LLC:
// DRAM latency, contended or resolved through the NUMA view.
func (e *Env) chargeWordMiss(pa uint64, write bool) {
	e.Perf.CacheMisses++
	lat := float64(e.Cost.DRAMAccessNs)
	if e.NUMA != nil {
		lat = e.NUMA.LatencyAt(pa)
	} else if e.Latency != nil {
		lat *= e.Latency()
	}
	if write {
		lat *= e.Cost.WriteMult()
	}
	e.Clock.AdvanceTicks(sim.ToTicks(sim.Time(lat)))
}

// chargeBulkAccess accounts for a sequential transfer of n bytes starting
// at physical address pa. Misses stream at the bus's effective bandwidth
// (divided by the NVM write multiplier for stores); cache-resident lines
// cost one hit each.
func (e *Env) chargeBulkAccess(pa uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	line := e.Cost.CacheLineSize
	lines := int((pa+uint64(n)-1)/uint64(line) - pa/uint64(line) + 1)
	hits, misses := 0, lines
	if e.Cache != nil {
		hits, misses = e.Cache.AccessRange(pa, n)
	}
	e.Perf.CacheRefs += uint64(lines)
	e.Perf.CacheMisses += uint64(misses)
	bw := e.bandwidth()
	if e.NUMA != nil {
		bw = e.NUMA.BWAt(pa, misses*line)
	}
	if write {
		bw /= e.Cost.WriteMult()
	}
	e.Clock.Advance(sim.CopyNs(misses*line, bw) +
		sim.Time(sim.Time(hits)*e.Cost.CacheHitNs))
}
