package lisp2

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gc"
	"repro/internal/sim"
)

// TestBackoffCapBoundary exercises chargeBackoff across the cap: the
// backoff doubles per attempt up to base << maxBackoffShift and stays
// pinned there for every later attempt.
func TestBackoffCapBoundary(t *testing.T) {
	wd := newWorld(t, 1<<20, svagcConfig().Policy)
	c := New("backoff", wd.h, wd.roots, svagcConfig())
	base := retryBackoffNs

	for attempt := 1; attempt <= maxBackoffShift+3; attempt++ {
		before := wd.ctx.Clock.Now()
		if err := c.chargeBackoff(wd.ctx, attempt, 0x1000); err != nil {
			t.Fatalf("attempt %d: unexpected watchdog trip: %v", attempt, err)
		}
		got := wd.ctx.Clock.Now() - before
		shift := attempt - 1
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		if want := base * sim.Time(int64(1)<<uint(shift)); got != want {
			t.Errorf("attempt %d: backoff %v, want %v", attempt, got, want)
		}
	}
	// Attempt maxBackoffShift+1 is the boundary: the first capped charge.
	// Attempts beyond it must charge the identical capped amount.
	if got := wd.ctx.Perf.SwapRetries; got != uint64(maxBackoffShift+3) {
		t.Errorf("SwapRetries = %d, want %d", got, maxBackoffShift+3)
	}
}

// TestRetryBudgetExhaustedExactlyAtCap is the boundary integration: with
// MaxSwapRetries = maxBackoffShift+1 and every swap failing transiently,
// each swappable move burns its full budget (the last retry charged at
// exactly the cap) and then degrades — the collection still completes and
// the graph survives.
func TestRetryBudgetExhaustedExactlyAtCap(t *testing.T) {
	plan, err := fault.ParsePlan("swapva=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := svagcConfig()
	cfg.Aggregate = false // direct swapOrDegrade ladder, no vectored path
	cfg.MaxSwapRetries = maxBackoffShift + 1
	wd, _ := newFaultWorld(t, 16<<20, cfg.Policy, 99, plan, false)
	c := New("cap", wd.h, wd.roots, cfg)

	buildChaosGraph(wd, 0, 40)
	if _, err := c.Collect(wd.ctx, gc.CauseExplicit); err != nil {
		t.Fatalf("collection failed: %v", err)
	}
	wd.verify()

	p := wd.ctx.Perf
	if p.SwapFallbacks == 0 {
		t.Fatal("swapva=1 produced no degrades")
	}
	// Every degraded move exhausted exactly its full retry budget first.
	if want := p.SwapFallbacks * uint64(cfg.MaxSwapRetries); p.SwapRetries != want {
		t.Errorf("SwapRetries = %d, want fallbacks(%d) * budget(%d) = %d",
			p.SwapRetries, p.SwapFallbacks, cfg.MaxSwapRetries, want)
	}
}

// TestPoisonedFrameDegradesImmediately: a poisoned frame is permanent ECC
// damage, so the ladder skips the retry rungs entirely — zero retries,
// straight to byte copy, and the collection completes.
func TestPoisonedFrameDegradesImmediately(t *testing.T) {
	plan, err := fault.ParsePlan("poison=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := svagcConfig()
	cfg.Aggregate = false
	wd, _ := newFaultWorld(t, 16<<20, cfg.Policy, 7, plan, false)
	c := New("poison", wd.h, wd.roots, cfg)

	buildChaosGraph(wd, 0, 40)
	if _, err := c.Collect(wd.ctx, gc.CauseExplicit); err != nil {
		t.Fatalf("collection failed: %v", err)
	}
	wd.verify()

	p := wd.ctx.Perf
	if p.SwapFallbacks == 0 {
		t.Fatal("poison=1 produced no degrades")
	}
	if p.SwapRetries != 0 {
		t.Errorf("poisoned frames were retried %d times; ErrPoisoned must degrade immediately", p.SwapRetries)
	}
}

// TestPoisonedVectoredPathDegrades covers the same immediate-degrade rung
// on the aggregated (SwapVAVec/flushReqs) path.
func TestPoisonedVectoredPathDegrades(t *testing.T) {
	plan, err := fault.ParsePlan("poison=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := svagcConfig() // Aggregate: true
	wd, _ := newFaultWorld(t, 16<<20, cfg.Policy, 11, plan, false)
	c := New("poison-vec", wd.h, wd.roots, cfg)

	buildChaosGraph(wd, 0, 40)
	if _, err := c.Collect(wd.ctx, gc.CauseExplicit); err != nil {
		t.Fatalf("collection failed: %v", err)
	}
	wd.verify()
	if p := wd.ctx.Perf; p.SwapFallbacks == 0 || p.SwapRetries != 0 {
		t.Errorf("vectored poison path: fallbacks=%d retries=%d, want >0 and 0",
			p.SwapFallbacks, p.SwapRetries)
	}
}
