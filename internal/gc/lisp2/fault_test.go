package lisp2

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newFaultWorld is newWorld on a machine with an armed fault injector.
// When traced is set, tracing is enabled before any context exists so the
// whole run (including fault/retry/fallback events) lands in the tracer.
func newFaultWorld(t *testing.T, heapBytes int64, policy core.MovePolicy,
	seed int64, plan fault.Plan, traced bool) (*world, *trace.Tracer) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Cost:  sim.XeonGold6130(),
		Fault: fault.New(seed, plan),
	})
	var tr *trace.Tracer
	if traced {
		tr = m.EnableTracing(0)
	}
	k := kernel.New(m)
	as := m.NewAddressSpace()
	h, err := heap.New(as, k, heap.Config{SizeBytes: heapBytes, Policy: policy, ZeroOnAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		t: t, m: m, k: k, h: h,
		roots: &gc.RootSet{},
		ctx:   m.NewContext(0),
		specs: map[int]heap.AllocSpec{},
		edges: map[int][]int{},
		objs:  map[int]*gc.Root{},
	}, tr
}

// chaosPlan is the aggressive all-classes plan the chaos tests run under:
// transient swap failures, PTE-lock stalls, dropped IPI acks, and a few
// permanently poisoned frames forcing the byte-copy degradation.
func chaosPlan(t *testing.T) fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan("swapva=0.4,pte-lock=0.2,ipi-ack=0.2,poison=0.05")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// chaosSizes mixes sub-page objects with ones above the ten-page swap
// threshold so compaction exercises both the memmove path and the
// SwapVA/SwapVAVec path.
var chaosSizes = []int{96, 512, 4096, 8192, 49152, 65536}

// buildChaosGraph allocates count objects with mixed sizes, links some
// into pairs, and drops the unlinked singletons in between — punching
// holes so compaction has to move (and swap) the survivors.
func buildChaosGraph(wd *world, base, count int) {
	for i := 0; i < count; i++ {
		id := base + i
		wd.alloc(id, 2, chaosSizes[id%len(chaosSizes)], uint16(id%7+1))
		if i%4 == 1 {
			wd.link(id, 0, id-1)
		}
	}
	for i := 3; i < count; i += 4 {
		wd.drop(base + i)
	}
}

// TestChaosCollectionAlwaysCompletes is the degradation-ladder contract:
// under an aggressive all-site fault plan every collection still completes,
// the post-GC shadow verifier (armed automatically because the machine has
// an active injector) passes, and the object graph survives bit-for-bit.
func TestChaosCollectionAlwaysCompletes(t *testing.T) {
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"svagc", svagcConfig()},
		{"memmove", memmoveConfig()},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			wd, _ := newFaultWorld(t, 16<<20, cfg.c.Policy, 1234, chaosPlan(t), false)
			c := New("chaos", wd.h, wd.roots, cfg.c)
			const perRound = 40
			for round := 0; round < 3; round++ {
				buildChaosGraph(wd, round*perRound, perRound)
				// Drop the previous round's remaining singletons to keep
				// churn up across rounds.
				if round > 0 {
					for i := 2; i < perRound; i += 4 {
						if id := (round-1)*perRound + i; wd.objs[id] != nil {
							wd.drop(id)
						}
					}
				}
				pause, err := c.Collect(wd.ctx, gc.CauseExplicit)
				if err != nil {
					t.Fatalf("round %d: collection failed under faults: %v", round, err)
				}
				if pause.LiveObjects == 0 {
					t.Fatalf("round %d: no live objects survived", round)
				}
				wd.verify()
			}
			p := wd.ctx.Perf
			if cfg.c.Policy.UseSwapVA {
				// The memmove baseline never reaches the injectable kernel
				// sites; only the swapping policy can observe faults here.
				if p.FaultsInjected == 0 {
					t.Fatal("aggressive plan injected no faults")
				}
				if p.SwapRetries+p.SwapFallbacks == 0 {
					t.Error("no swap retries or copy fallbacks recorded under swapva=0.4")
				}
				if p.SwapRollbacks == 0 {
					t.Error("transient swap failures caused no rollbacks")
				}
			}
			t.Logf("%s: %d faults, %d retries, %d fallbacks, %d rollbacks, %d IPI re-sends",
				cfg.name, p.FaultsInjected, p.SwapRetries, p.SwapFallbacks,
				p.SwapRollbacks, p.IPIResends)
		})
	}
}

// TestChaosDeterministicReplay is the ISSUE's replay acceptance: two runs
// with the same fault seed and plan produce the identical fault sequence —
// compared both as counters and as the full Chrome trace byte stream.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func(seed int64) (sim.Perf, sim.Time, []byte) {
		wd, tr := newFaultWorld(t, 16<<20, core.DefaultPolicy(), seed, chaosPlan(t), true)
		c := New("replay", wd.h, wd.roots, svagcConfig())
		for round := 0; round < 2; round++ {
			buildChaosGraph(wd, round*40, 40)
			if _, err := c.Collect(wd.ctx, gc.CauseExplicit); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
		var buf bytes.Buffer
		if err := trace.ChromeTraceOf(tr).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return *wd.ctx.Perf, wd.ctx.Clock.Now(), buf.Bytes()
	}

	perfA, clockA, traceA := run(7)
	perfB, clockB, traceB := run(7)
	if perfA != perfB {
		t.Errorf("same seed, different counters:\n  a: %+v\n  b: %+v", perfA, perfB)
	}
	if clockA != clockB {
		t.Errorf("same seed, different clocks: %v vs %v", clockA, clockB)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Error("same seed, different Chrome trace byte streams")
	}
	if perfA.FaultsInjected == 0 {
		t.Fatal("replay test injected no faults; comparison is vacuous")
	}

	perfC, _, _ := run(8)
	if perfA == perfC {
		t.Error("seeds 7 and 8 produced identical fault counters")
	}
}

// TestVerifyHeapOnCleanRun: the shadow verifier can be armed explicitly
// (Config.VerifyHeap) on a healthy machine and passes.
func TestVerifyHeapOnCleanRun(t *testing.T) {
	wd := newWorld(t, 8<<20, core.DefaultPolicy())
	cfg := svagcConfig()
	cfg.VerifyHeap = true
	c := New("verified", wd.h, wd.roots, cfg)
	buildChaosGraph(wd, 0, 40)
	if _, err := c.Collect(wd.ctx, gc.CauseExplicit); err != nil {
		t.Fatalf("verified clean collection failed: %v", err)
	}
	wd.verify()
}

// TestRetryBudgetExhaustedExactlyAtCap is the boundary integration: with
// MaxSwapRetries = 7 (the retry whose backoff first reaches the 64x cap)
// and every swap failing transiently, each swappable move burns its full
// budget and then degrades — the collection still completes and the
// graph survives.
func TestRetryBudgetExhaustedExactlyAtCap(t *testing.T) {
	plan, err := fault.ParsePlan("swapva=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := svagcConfig()
	cfg.Aggregate = false // the single-object ladder, no vectored path
	cfg.MaxSwapRetries = 7
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
// on the aggregated (SwapVAVec) path.
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
