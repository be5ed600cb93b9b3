package sched

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNilArbiter pins the disabled plane: a nil arbiter grants at the
// request time with no bookkeeping.
func TestNilArbiter(t *testing.T) {
	var a *Arbiter
	g := a.Admit("x", 100, 50)
	if g.Start != 100 || g.Waited != 0 || g.Stalled || g.AgedPast {
		t.Errorf("nil Admit = %+v, want immediate grant at 100", g)
	}
	a.Release("x", 150)
	a.DeclareDeadline("x", 0, 10)
	if s := a.Stats(); s != (Stats{}) {
		t.Errorf("nil Stats = %+v, want zero", s)
	}
}

// TestArbiterStallShape pins the injected stall: at arbiter-stall rate 1
// an otherwise uncontended admission starts exactly fault.ArbiterStallNs
// late and reports the stall.
func TestArbiterStallShape(t *testing.T) {
	var plan fault.Plan
	plan.Rate[trace.FaultArbiterStall] = 1
	a := New(Config{Injector: fault.New(7, plan)})
	g := a.Admit("a", 100, 50)
	if g.Start != 100+fault.ArbiterStallNs || g.Waited != fault.ArbiterStallNs || !g.Stalled {
		t.Errorf("stalled Admit = %+v, want Start %v, Waited %v, Stalled",
			g, 100+fault.ArbiterStallNs, fault.ArbiterStallNs)
	}
}

// TestBoundedConcurrency checks the reservation book: with MaxConcurrent
// of 1, a second tenant requesting inside the first's reservation is
// pushed to its end; a third queues behind both.
func TestBoundedConcurrency(t *testing.T) {
	a := New(Config{MaxConcurrent: 1})
	g1 := a.Admit("a", 0, 100)
	if g1.Start != 0 {
		t.Fatalf("first grant at %v, want 0", g1.Start)
	}
	g2 := a.Admit("b", 10, 100)
	if g2.Start != 100 || g2.Waited != 90 {
		t.Errorf("overlapping grant = %+v, want start 100 after a's reservation", g2)
	}
	g3 := a.Admit("c", 10, 100)
	if g3.Start != 200 {
		t.Errorf("third grant starts at %v, want 200 (queued behind both)", g3.Start)
	}
	s := a.Stats()
	if s.Grants != 3 || s.Waits != 2 || s.Deferrals < 2 {
		t.Errorf("stats = %+v, want 3 grants / 2 waits / >=2 deferrals", s)
	}
	if s.MaxWaitNs != 190 || s.TotalWaitNs != 90+190 {
		t.Errorf("wait accounting = max %v total %v, want 190 / 280", s.MaxWaitNs, s.TotalWaitNs)
	}
}

// TestMaxConcurrentTwo allows one overlap before deferring.
func TestMaxConcurrentTwo(t *testing.T) {
	a := New(Config{MaxConcurrent: 2})
	a.Admit("a", 0, 100)
	if g := a.Admit("b", 0, 100); g.Start != 0 {
		t.Errorf("second concurrent grant deferred to %v, want 0", g.Start)
	}
	if g := a.Admit("c", 0, 100); g.Start != 100 {
		t.Errorf("third grant at %v, want 100 (book full)", g.Start)
	}
}

// TestSameTenantNoSelfContention: a tenant's own reservation never
// defers its next request (the jvm serialises its own collections).
func TestSameTenantNoSelfContention(t *testing.T) {
	a := New(Config{MaxConcurrent: 1})
	a.Admit("a", 0, 100)
	if g := a.Admit("a", 10, 50); g.Start != 10 {
		t.Errorf("self-overlapping grant at %v, want 10", g.Start)
	}
}

// TestReleaseTrims: releasing early frees budget a shorter-than-expected
// collection reserved; releasing late extends contention.
func TestReleaseTrims(t *testing.T) {
	a := New(Config{MaxConcurrent: 1})
	a.Admit("a", 0, 1000)
	a.Release("a", 100) // finished far earlier than expected
	if g := a.Admit("b", 50, 100); g.Start != 100 {
		t.Errorf("grant after trim at %v, want 100", g.Start)
	}

	a = New(Config{MaxConcurrent: 1})
	a.Admit("a", 0, 100)
	a.Release("a", 500) // overran its estimate
	if g := a.Admit("b", 50, 100); g.Start != 500 {
		t.Errorf("grant after overrun at %v, want 500", g.Start)
	}
}

// TestDeadlineDeferral: a foreign tenant's declared latency-sensitive
// window pushes a collection past it; the window's owner is unaffected.
func TestDeadlineDeferral(t *testing.T) {
	a := New(Config{MaxConcurrent: 4})
	a.DeclareDeadline("latency", 100, 200)
	if g := a.Admit("batch", 150, 50); g.Start != 300 {
		t.Errorf("deferred grant at %v, want 300 (past the window)", g.Start)
	}
	if g := a.Admit("latency", 150, 50); g.Start != 150 {
		t.Errorf("window owner deferred to %v, want 150", g.Start)
	}
	if s := a.Stats(); s.Deferrals == 0 {
		t.Error("deferral not counted")
	}
}

// TestPriorityAging is the starvation bound: a tenant that has
// accumulated AgingNs of admission wait breaks through deadline windows
// instead of deferring forever behind a latency-sensitive neighbour.
func TestPriorityAging(t *testing.T) {
	a := New(Config{MaxConcurrent: 4, AgingNs: 100})
	// Wall-to-wall foreign windows: without aging, "victim" would defer
	// past every one of them.
	for i := sim.Time(0); i < 10; i++ {
		a.DeclareDeadline("vip", i*1000, 1000)
	}
	first := a.Admit("victim", 0, 50)
	if first.AgedPast || first.Waited < 100 {
		t.Fatalf("first grant = %+v: expected a long deferral banking aging credit", first)
	}
	// The first admission banked more than AgingNs of credit, so a fresh
	// blocking window no longer defers the tenant: it breaks through.
	a.DeclareDeadline("vip", first.Start, 1000)
	g2 := a.Admit("victim", first.Start, 50)
	if !g2.AgedPast || g2.Waited != 0 {
		t.Errorf("aged tenant still deferred: %+v (credit %v)", g2, first.Waited)
	}
	s := a.Stats()
	if s.AgingBreaks == 0 {
		t.Errorf("no aging breaks recorded: %+v", s)
	}
}

// TestAgingCreditResets: an immediate grant clears banked credit, so a
// tenant that stopped waiting starts aging from zero again.
func TestAgingCreditResets(t *testing.T) {
	a := New(Config{MaxConcurrent: 1, AgingNs: 50})
	a.Admit("a", 0, 100)
	gb := a.Admit("b", 0, 10) // waits 100 ≥ aging: credit banked
	if gb.Waited < 50 {
		t.Fatalf("setup: b waited %v, want >= 50", gb.Waited)
	}
	// b admits again long after all reservations expired: immediate
	// grant, credit resets.
	if g := a.Admit("b", 10_000, 10); g.Waited != 0 {
		t.Fatalf("expected immediate grant, got %+v", g)
	}
	// Now a window blocks b: with credit reset, it defers instead of
	// breaking through.
	a.DeclareDeadline("vip", 20_000, 100)
	if g := a.Admit("b", 20_000, 10); g.AgedPast {
		t.Errorf("reset tenant still aged past the window: %+v", g)
	}
}

// TestPruneExpired: reservations and windows behind virtual time stop
// contending.
func TestPruneExpired(t *testing.T) {
	a := New(Config{MaxConcurrent: 1})
	a.Admit("a", 0, 100)
	a.DeclareDeadline("vip", 0, 100)
	if g := a.Admit("b", 200, 50); g.Start != 200 || g.Waited != 0 {
		t.Errorf("grant past expiry = %+v, want immediate at 200", g)
	}
}
