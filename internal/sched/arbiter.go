// Package sched implements the machine-wide GC arbiter: an admission
// controller that decides which tenant collects when. Consolidated tenants
// share the physical machine's coherence fabric — one tenant's collection
// means IPI broadcasts and bus streams every other tenant pays for — so
// the arbiter bounds how many collections run concurrently, defers a
// collection that would land inside another tenant's declared
// latency-sensitive window, and ages waiting tenants' priority so no
// tenant starves behind a chatty neighbour.
//
// Determinism: the simulated machine is driven sequentially by the host
// even when tenants interleave in virtual time, so admission cannot rely
// on observing collections that are literally in flight. Instead the
// arbiter keeps a book of virtual-time reservations: Admit reserves
// [start, start+expected) for the requesting tenant and Release trims the
// reservation to the actual end. Reservations persist until virtual time
// passes them, so two tenants whose collections overlap in virtual time
// contend in the book exactly as they would on real hardware, regardless
// of host driving order. All decisions are pure functions of the call
// sequence, so same-seed runs replay bit-identically.
package sched

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config shapes an arbiter.
type Config struct {
	// MaxConcurrent bounds how many tenants' collections may overlap in
	// virtual time. <= 0 selects 1 (fully serialised collections).
	MaxConcurrent int
	// AgingNs is the priority-aging threshold: once a tenant has
	// accumulated this much admission wait, deferral windows no longer
	// apply to it, bounding starvation. <= 0 selects 1 ms.
	AgingNs sim.Time
	// Injector, when armed, can fire arbiter_stall faults that delay
	// admission decisions by fault.ArbiterStallNs.
	Injector *fault.Injector
}

// DefaultAgingNs is the priority-aging threshold when Config leaves it
// zero: 1 ms of accumulated deferral, a few large GC pauses.
const DefaultAgingNs = sim.Time(1_000_000)

// Grant is the arbiter's admission decision.
type Grant struct {
	// Start is the virtual time the collection may begin (>= the request
	// time). The caller advances its clock to Start before collecting.
	Start sim.Time
	// Waited is Start minus the request time (including any injected
	// stall).
	Waited sim.Time
	// Stalled reports that an injected arbiter_stall fault fired on this
	// admission; the caller attributes it to the fault plane.
	Stalled bool
	// AgedPast reports that priority aging let this grant ignore deferral
	// windows (the tenant had waited past the aging threshold).
	AgedPast bool
}

// Stats is a snapshot of the arbiter's admission counters, for tests and
// diagnostics.
type Stats struct {
	Grants      uint64
	Waits       uint64 // grants with Waited > 0
	Deferrals   uint64 // times a candidate start was pushed past a window or reservation
	AgingBreaks uint64 // grants that ignored deferral windows via aging
	TotalWaitNs sim.Time
	MaxWaitNs   sim.Time
}

// reservation is one tenant's virtual-time claim on the collection budget.
type reservation struct {
	tenant     string
	start, end sim.Time
}

// window is a tenant's declared latency-sensitive interval; other tenants'
// collections are deferred past it (unless aged).
type window struct {
	tenant     string
	start, end sim.Time
}

// Arbiter is the admission controller. A nil *Arbiter is the disabled
// plane: every method is nil-safe and Admit grants immediately, so
// zero-config runs are bit-identical to a simulator without the arbiter.
// Like the machine whose tenants it arbitrates, an arbiter is driven by
// one host goroutine.
type Arbiter struct {
	maxCon int
	aging  sim.Time
	inj    *fault.Injector

	reservations []reservation
	windows      []window
	credit       map[string]sim.Time
	stats        Stats
}

// New builds an arbiter; zero Config fields select the defaults.
func New(cfg Config) *Arbiter {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.AgingNs <= 0 {
		cfg.AgingNs = DefaultAgingNs
	}
	return &Arbiter{
		maxCon: cfg.MaxConcurrent,
		aging:  cfg.AgingNs,
		inj:    cfg.Injector,
		credit: make(map[string]sim.Time),
	}
}

// DeclareDeadline registers a latency-sensitive window for tenant starting
// at `at` and lasting slack ns: other tenants' collections are deferred
// past it rather than admitted inside it. Windows expire as virtual time
// passes them. Nil-safe.
func (a *Arbiter) DeclareDeadline(tenant string, at, slack sim.Time) {
	if a == nil || slack <= 0 {
		return
	}
	a.windows = append(a.windows, window{tenant: tenant, start: at, end: at + slack})
}

// Admit asks permission for tenant to run a collection of the expected
// duration starting no earlier than now. The returned grant's Start is the
// admitted begin time — the earliest t >= now at which fewer than
// MaxConcurrent reserved collections overlap [t, t+expected) and no other
// tenant's deadline window covers it (unless the requester has aged past
// the threshold). The slot [Start, Start+expected) is reserved; the caller
// must pair the call with Release once the collection ends. Nil-safe: a
// nil arbiter admits at now.
func (a *Arbiter) Admit(tenant string, now, expected sim.Time) Grant {
	if a == nil {
		return Grant{Start: now}
	}
	if expected <= 0 {
		expected = 1
	}
	a.prune(now)

	g := Grant{Start: now}
	if a.inj.Enabled(trace.FaultArbiterStall) && a.inj.Fire(trace.FaultArbiterStall) {
		g.Start += fault.ArbiterStallNs
		g.Stalled = true
	}
	aged := a.credit[tenant] >= a.aging
	// Walk candidate start times forward: each conflict (a full
	// reservation book or a foreign deadline window) pushes the candidate
	// to the conflicting interval's end. The book and window lists are
	// finite and each step strictly advances past one interval, so the
	// walk terminates.
	for {
		if end, full := a.bookFullAt(g.Start, expected, tenant); full {
			g.Start = end
			a.stats.Deferrals++
			continue
		}
		if end, blocked := a.windowAt(g.Start, expected, tenant); blocked {
			if aged {
				// Priority aging: the tenant has been deferred past the
				// threshold, so deadline windows no longer hold it back.
				g.AgedPast = true
				break
			}
			g.Start = end
			a.stats.Deferrals++
			continue
		}
		break
	}
	g.Waited = g.Start - now

	a.reservations = append(a.reservations,
		reservation{tenant: tenant, start: g.Start, end: g.Start + expected})
	a.stats.Grants++
	if g.Waited > 0 {
		a.stats.Waits++
		a.stats.TotalWaitNs += g.Waited
		if g.Waited > a.stats.MaxWaitNs {
			a.stats.MaxWaitNs = g.Waited
		}
		a.credit[tenant] += g.Waited
	} else {
		a.credit[tenant] = 0
	}
	if g.AgedPast {
		a.stats.AgingBreaks++
	}
	return g
}

// Release sets tenant's most recent reservation to the actual end of the
// collection — trimming budget an over-estimated Admit held, or extending
// a reservation the collection overran, so later admissions contend with
// what really happened. Nil-safe.
func (a *Arbiter) Release(tenant string, end sim.Time) {
	if a == nil {
		return
	}
	for i := len(a.reservations) - 1; i >= 0; i-- {
		r := &a.reservations[i]
		if r.tenant == tenant {
			if end > r.start {
				r.end = end
			}
			break
		}
	}
}

// Stats snapshots the admission counters. Nil-safe.
func (a *Arbiter) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return a.stats
}

// bookFullAt reports whether [t, t+d) already has MaxConcurrent foreign
// reservations overlapping it; if so it returns the earliest overlapping
// reservation end past t, the next candidate start.
func (a *Arbiter) bookFullAt(t, d sim.Time, tenant string) (sim.Time, bool) {
	count := 0
	var next sim.Time
	for _, r := range a.reservations {
		if r.tenant == tenant || r.start >= t+d || r.end <= t {
			continue
		}
		count++
		if next == 0 || r.end < next {
			next = r.end
		}
	}
	if count >= a.maxCon {
		return next, true
	}
	return 0, false
}

// windowAt reports whether a foreign deadline window overlaps [t, t+d);
// if so it returns the earliest such window's end.
func (a *Arbiter) windowAt(t, d sim.Time, tenant string) (sim.Time, bool) {
	var next sim.Time
	blocked := false
	for _, w := range a.windows {
		if w.tenant == tenant || w.start >= t+d || w.end <= t {
			continue
		}
		if !blocked || w.end < next {
			next = w.end
		}
		blocked = true
	}
	return next, blocked
}

// prune drops reservations and windows that virtual time has fully
// passed.
func (a *Arbiter) prune(now sim.Time) {
	keepR := a.reservations[:0]
	for _, r := range a.reservations {
		if r.end > now {
			keepR = append(keepR, r)
		}
	}
	a.reservations = keepR
	keepW := a.windows[:0]
	for _, w := range a.windows {
		if w.end > now {
			keepW = append(keepW, w)
		}
	}
	a.windows = keepW
}
