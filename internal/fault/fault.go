// Package fault is the deterministic fault-injection plane for the
// simulated machine. An Injector is armed with a Plan — a per-site
// probability table — and a seed; every potential failure point in
// machine/mmu/kernel asks the injector whether to misbehave. Decisions
// are pure functions of (seed, site, per-site sequence number), so two
// runs with the same seed and plan replay the identical fault sequence,
// and a zero-rate plan is bit-identical to running with no injector at
// all: Fire returns false without charging simulated time, emitting
// events, or touching any shared state.
//
// Injectable sites (see trace.FaultSite):
//
//   - pte_lock_stall: a PTE-table lock acquisition stalls for LockStallNs.
//   - ipi_ack: a TLB-shootdown IPI ack is dropped; the sender waits out
//     AckTimeoutNs (doubling per round, bounded by MaxIPIResends) and
//     re-sends to the unacked targets.
//   - swap_transient: a SwapVA request fails mid-body with a retryable
//     EAGAIN-style error; the kernel rolls the partial exchange back.
//   - frame_poison: a physical frame is ECC-bad. Poisoning is keyed by
//     frame ID, not by a sequence number, so a poisoned frame stays
//     poisoned for the whole run and retrying is futile — callers must
//     degrade to the byte-copy path.
//   - interconnect: a NUMA cross-socket access hits a brownout and its
//     latency/bandwidth cost degrades by BrownoutFactor.
//   - far_write: a write to the far (NVMe) swap tier fails transiently;
//     the reclaimer skips the page and a SwapVA touching a swapped PTE
//     aborts with EAGAIN and rolls back.
//   - arbiter_stall: a GC-arbiter admission decision stalls for
//     ArbiterStallNs, pushing the requesting tenant's collection start
//     back as if the arbiter's bookkeeping were contended.
//
// Determinism contract: each site has its own sequence number, so the
// decision *stream* per site is fixed by the seed, and the machine's one
// driving goroutine issues site queries in a deterministic order, so a
// seed replays the identical fault sequence.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Site aliases the trace-layer enum so callers can name sites without
// importing both packages.
type Site = trace.FaultSite

// Plan is a per-site probability table in [0, 1].
type Plan struct {
	Rate [trace.NumFaultSites]float64
}

// Active reports whether any site has a non-zero rate.
func (p Plan) Active() bool {
	for _, r := range p.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// String renders the plan in ParsePlan's input format (active sites only).
func (p Plan) String() string {
	var b strings.Builder
	for i, r := range p.Rate {
		if r <= 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%g", Site(i), r)
	}
	return b.String()
}

// Uniform returns a plan injecting every site at the given rate.
func Uniform(rate float64) Plan {
	var p Plan
	for i := range p.Rate {
		p.Rate[i] = rate
	}
	return p
}

// siteAliases maps accepted spelling variants to sites. The canonical
// names are the FaultSite String() values; the dashed short forms match
// the CLI documentation.
var siteAliases = map[string]Site{
	"pte_lock_stall": trace.FaultPTELockStall,
	"pte-lock":       trace.FaultPTELockStall,
	"ipi_ack":        trace.FaultIPIAck,
	"ipi-ack":        trace.FaultIPIAck,
	"swap_transient": trace.FaultSwapTransient,
	"swapva":         trace.FaultSwapTransient,
	"frame_poison":   trace.FaultFramePoison,
	"poison":         trace.FaultFramePoison,
	"interconnect":   trace.FaultInterconnect,
	"far_write":      trace.FaultFarWrite,
	"far-write":      trace.FaultFarWrite,
	"arbiter_stall":  trace.FaultArbiterStall,
	"arbiter-stall":  trace.FaultArbiterStall,
}

// ParsePlan parses a comma-separated "site:rate" list, e.g.
// "pte-lock:0.01,ipi-ack:0.005". The pseudo-site "all" sets every rate.
// Site names accept both the metric spelling (pte_lock_stall) and the
// dashed CLI short form (pte-lock). An empty spec is the zero plan.
func ParsePlan(spec string) (Plan, error) {
	return ParsePlanWithRate(spec, 0)
}

// ParsePlanWithRate is ParsePlan on top of a uniform base rate: every
// site starts at rate (the -fault-rate flag), then spec entries override
// individual sites.
func ParsePlanWithRate(spec string, rate float64) (Plan, error) {
	var p Plan
	// NaN compares false against both bounds, so reject it explicitly —
	// a NaN rate would otherwise flow into every roll undetected.
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return p, fmt.Errorf("fault: base rate %g outside [0, 1]", rate)
	}
	if rate > 0 {
		p = Uniform(rate)
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, val, ok := strings.Cut(tok, "=")
		if !ok {
			name, val, ok = strings.Cut(tok, ":")
		}
		if !ok {
			return p, fmt.Errorf("fault: entry %q not in site=rate form", tok)
		}
		r, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
			return p, fmt.Errorf("fault: entry %q: rate must be a number in [0, 1]", tok)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "all" {
			for i := range p.Rate {
				p.Rate[i] = r
			}
			continue
		}
		s, ok := siteAliases[name]
		if !ok {
			return p, fmt.Errorf("fault: unknown site %q (want pte-lock, ipi-ack, swapva, poison, interconnect, far-write, arbiter-stall, or all)", name)
		}
		p.Rate[s] = r
	}
	return p, nil
}

// Fault shapes: how long injected delays last and how the IPI re-send
// ladder is bounded.
const (
	// LockStallNs is the extra hold time charged when a PTE-lock stall
	// fires: long against the ~20 ns uncontended lock cost, short against
	// a GC pause.
	LockStallNs = 5 * sim.Microsecond
	// AckTimeoutNs is the wait before the first shootdown re-send when an
	// IPI ack is dropped; it doubles each round.
	AckTimeoutNs = 10 * sim.Microsecond
	// MaxIPIResends bounds the re-send rounds; after that the kernel
	// proceeds (the flush itself was delivered, only the ack bookkeeping
	// is lost).
	MaxIPIResends = 3
	// BrownoutFactor multiplies cross-socket latency (and divides link
	// bandwidth) for a browned-out access.
	BrownoutFactor = 8.0
	// ArbiterStallNs is the admission-decision delay charged when an
	// arbiter stall fires: comparable to a small GC phase, so stalls
	// visibly shift collection starts without dominating pauses.
	ArbiterStallNs = 25 * sim.Microsecond
)

// Injector schedules faults for one simulated machine. A nil *Injector is
// the disabled plane: every method is nil-safe and the query path is a
// single predicted branch.
type Injector struct {
	seed uint64
	plan Plan
	seq  [trace.NumFaultSites]uint64
}

// New builds an injector for the given seed and plan. Returns nil for an
// inactive plan, so callers can thread the result straight into
// machine.Config.
func New(seed int64, plan Plan) *Injector {
	if !plan.Active() {
		return nil
	}
	return &Injector{seed: uint64(seed), plan: plan}
}

// Active reports whether any site can fire. Nil-safe.
func (i *Injector) Active() bool { return i != nil && i.plan.Active() }

// Enabled reports whether the given site can fire. Nil-safe; hot paths
// use it to skip even the sequence-number bump.
func (i *Injector) Enabled(s Site) bool {
	return i != nil && i.plan.Rate[s] > 0
}

// Fire rolls the next decision for a site: true means the fault fires.
// Each call consumes one per-site sequence number, so the decision stream
// is a pure function of (seed, site). Nil-safe; a zero-rate site returns
// false without consuming a sequence number, keeping zero-rate plans
// bit-identical to a nil injector.
func (i *Injector) Fire(s Site) bool {
	if i == nil {
		return false
	}
	r := i.plan.Rate[s]
	if r <= 0 {
		return false
	}
	i.seq[s]++
	return roll(i.seed, s, i.seq[s]) < r
}

// FramePoisoned reports whether a physical frame is ECC-bad. The decision
// is keyed by frame ID (no sequence number), so a frame's poison status
// is stable for the whole run regardless of query order.
func (i *Injector) FramePoisoned(frame uint64) bool {
	if i == nil {
		return false
	}
	r := i.plan.Rate[trace.FaultFramePoison]
	if r <= 0 {
		return false
	}
	return roll(i.seed, trace.FaultFramePoison, frame^0xecc0ecc0ecc0ecc0) < r
}

// Plan returns the armed plan (zero Plan for a nil injector).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// roll hashes (seed, site, n) to a uniform float64 in [0, 1) with a
// splitmix64 finalizer. The odd multipliers keep distinct sites' streams
// uncorrelated even for adjacent sequence numbers.
func roll(seed uint64, s Site, n uint64) float64 {
	x := seed + 0x9e3779b97f4a7c15*(uint64(s)+1) + 0xbf58476d1ce4e5b9*n
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
