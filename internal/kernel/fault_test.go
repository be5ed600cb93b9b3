package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newFaultFixture builds a fixture whose machine injects faults per plan.
func newFaultFixture(t *testing.T, seed int64, plan fault.Plan) *fixture {
	t.Helper()
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130(), Fault: fault.New(seed, plan)})
	return &fixture{m: m, k: New(m), as: m.NewAddressSpace(), ctx: m.NewContext(0)}
}

func planFor(site fault.Site, rate float64) fault.Plan {
	var p fault.Plan
	p.Rate[site] = rate
	return p
}

// TestTransientSwapIsTransactional: a SwapVA that fails with an injected
// transient must leave both ranges bit-identical to their pre-call state
// (the partial exchange is rolled back), and a SwapVA that succeeds must
// be a complete exchange. No third outcome exists.
func TestTransientSwapIsTransactional(t *testing.T) {
	f := newFaultFixture(t, 7, planFor(trace.FaultSwapTransient, 0.35))
	const pages = 8
	a, _ := f.as.MapRegion(pages)
	b, _ := f.as.MapRegion(pages)
	f.fillPages(t, a, pages, 0x11)
	f.fillPages(t, b, pages, 0x22)

	fails, successes := 0, 0
	for i := 0; i < 60; i++ {
		preA := f.snapshot(t, a, pages)
		preB := f.snapshot(t, b, pages)
		preSwapped := f.ctx.Perf.PagesSwapped
		err := f.k.SwapVA(f.ctx, f.as, a, b, pages, DefaultOptions())
		if err != nil {
			fails++
			if !errors.Is(err, ErrAgain) {
				t.Fatalf("iteration %d: err = %v, want ErrAgain", i, err)
			}
			if !Degradable(err) {
				t.Fatalf("ErrAgain not Degradable")
			}
			if va, ok := FaultingVA(err); !ok || va < a || va >= a+pages<<mem.PageShift {
				t.Fatalf("iteration %d: FaultingVA = %#x,%v", i, va, ok)
			}
			if !bytes.Equal(f.snapshot(t, a, pages), preA) ||
				!bytes.Equal(f.snapshot(t, b, pages), preB) {
				t.Fatalf("iteration %d: failed swap left a partial exchange", i)
			}
			if f.ctx.Perf.PagesSwapped != preSwapped {
				t.Fatalf("iteration %d: failed swap counted %d pages",
					i, f.ctx.Perf.PagesSwapped-preSwapped)
			}
		} else {
			successes++
			if !bytes.Equal(f.snapshot(t, a, pages), preB) ||
				!bytes.Equal(f.snapshot(t, b, pages), preA) {
				t.Fatalf("iteration %d: successful swap is not a full exchange", i)
			}
			if f.ctx.Perf.PagesSwapped != preSwapped+pages {
				t.Fatalf("iteration %d: successful swap counted %d pages, want %d",
					i, f.ctx.Perf.PagesSwapped-preSwapped, pages)
			}
		}
	}
	if fails == 0 || successes == 0 {
		t.Fatalf("want both outcomes at rate 0.35: %d fails, %d successes", fails, successes)
	}
	if f.ctx.Perf.SwapRollbacks == 0 {
		t.Error("no rollback recorded despite mid-body failures")
	}
	if f.ctx.Perf.FaultsInjected == 0 {
		t.Error("no injected faults counted")
	}
}

// TestTransientOverlapSwapRollsBack covers the cycle-chasing body's undo
// path (slot restores rather than pair re-swaps).
func TestTransientOverlapSwapRollsBack(t *testing.T) {
	f := newFaultFixture(t, 11, planFor(trace.FaultSwapTransient, 0.25))
	const pages, delta = 12, 4
	base, _ := f.as.MapRegion(pages + delta)
	va1, va2 := base, base+uint64(delta)<<mem.PageShift
	f.fillPages(t, base, pages+delta, 0x3C)

	opts := DefaultOptions() // Overlap: true
	fails, successes := 0, 0
	for i := 0; i < 60; i++ {
		pre := f.snapshot(t, base, pages+delta)
		err := f.k.SwapVA(f.ctx, f.as, va1, va2, pages, opts)
		if err != nil {
			fails++
			if !errors.Is(err, ErrAgain) {
				t.Fatalf("iteration %d: err = %v, want ErrAgain", i, err)
			}
			if !bytes.Equal(f.snapshot(t, base, pages+delta), pre) {
				t.Fatalf("iteration %d: failed overlap swap left a partial rotation", i)
			}
		} else {
			successes++
			if bytes.Equal(f.snapshot(t, base, pages+delta), pre) {
				t.Fatalf("iteration %d: successful overlap swap changed nothing", i)
			}
		}
	}
	if fails == 0 || successes == 0 {
		t.Fatalf("want both outcomes: %d fails, %d successes", fails, successes)
	}
}

// TestTransientHugeSwapRollsBack: a transient after a committed PMD
// exchange must re-swap the PMD entries back.
func TestTransientHugeSwapRollsBack(t *testing.T) {
	f := newFaultFixture(t, 5, planFor(trace.FaultSwapTransient, 0.4))
	pages := 2 * hugePages
	a := alignedRegion(t, f, pages)
	b := alignedRegion(t, f, pages)
	f.fillPages(t, a, 1, 0x44)
	f.fillPages(t, b, 1, 0x55)
	// Tag the last page of each region too, so a lost tail PMD shows up.
	f.fillPages(t, a+uint64(pages-1)<<mem.PageShift, 1, 0x46)
	f.fillPages(t, b+uint64(pages-1)<<mem.PageShift, 1, 0x57)

	opts := DefaultOptions()
	opts.HugeSwap = true
	sample := func() []byte {
		s := append([]byte{}, f.snapshot(t, a, 1)...)
		s = append(s, f.snapshot(t, a+uint64(pages-1)<<mem.PageShift, 1)...)
		s = append(s, f.snapshot(t, b, 1)...)
		return append(s, f.snapshot(t, b+uint64(pages-1)<<mem.PageShift, 1)...)
	}
	fails, successes := 0, 0
	for i := 0; i < 40; i++ {
		pre := sample()
		err := f.k.SwapVA(f.ctx, f.as, a, b, pages, opts)
		if err != nil {
			fails++
			if !errors.Is(err, ErrAgain) {
				t.Fatalf("iteration %d: err = %v", i, err)
			}
			if !bytes.Equal(sample(), pre) {
				t.Fatalf("iteration %d: failed huge swap left PMD entries exchanged", i)
			}
		} else {
			successes++
			if bytes.Equal(sample(), pre) {
				t.Fatalf("iteration %d: successful huge swap changed nothing", i)
			}
		}
	}
	if fails == 0 || successes == 0 {
		t.Fatalf("want both outcomes: %d fails, %d successes", fails, successes)
	}
}

// TestPoisonedFrameFailsPermanently: poison is keyed by frame, so the
// same request fails identically on retry — the caller must degrade.
func TestPoisonedFrameFailsPermanently(t *testing.T) {
	f := newFaultFixture(t, 3, planFor(trace.FaultFramePoison, 1))
	a, _ := f.as.MapRegion(2)
	b, _ := f.as.MapRegion(2)
	f.fillPages(t, a, 2, 1)
	f.fillPages(t, b, 2, 2)
	pre := f.snapshot(t, a, 2)
	for retry := 0; retry < 3; retry++ {
		err := f.k.SwapVA(f.ctx, f.as, a, b, 2, DefaultOptions())
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("retry %d: err = %v, want ErrPoisoned", retry, err)
		}
		if !Degradable(err) {
			t.Fatal("ErrPoisoned not Degradable")
		}
		if va, ok := FaultingVA(err); !ok || (va != a && va != b) {
			t.Fatalf("retry %d: FaultingVA = %#x,%v", retry, va, ok)
		}
	}
	if !bytes.Equal(f.snapshot(t, a, 2), pre) {
		t.Error("poisoned swap changed contents")
	}
}

// TestLockStallChargesClock: an injected PTE-lock stall slows the call
// down but never changes its result.
func TestLockStallChargesClock(t *testing.T) {
	const pages = 4
	run := func(f *fixture) (sim.Time, []byte) {
		a, _ := f.as.MapRegion(pages)
		b, _ := f.as.MapRegion(pages)
		f.fillPages(t, a, pages, 0x0F)
		f.fillPages(t, b, pages, 0xF0)
		if err := f.k.SwapVA(f.ctx, f.as, a, b, pages, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		return f.ctx.Clock.Now(), f.snapshot(t, a, pages)
	}
	cleanT, cleanBytes := run(newFixture(t))
	stallF := newFaultFixture(t, 9, planFor(trace.FaultPTELockStall, 1))
	stallT, stallBytes := run(stallF)
	if !bytes.Equal(cleanBytes, stallBytes) {
		t.Error("lock stall changed the swap's result")
	}
	want := cleanT + sim.Time(pages)*fault.LockStallNs
	if stallT != want {
		t.Errorf("stalled swap took %v, want %v (clean %v + %d stalls)",
			stallT, want, cleanT, pages)
	}
	if stallF.ctx.Perf.FaultsInjected != pages {
		t.Errorf("FaultsInjected = %d, want %d", stallF.ctx.Perf.FaultsInjected, pages)
	}
}

// TestZeroRateSitesAreBitIdentical is the parity contract: an injector
// whose relevant sites are all zero-rate must charge exactly the same
// clock and counters as no injector at all, across every swap entry
// point. (A fully inactive plan never constructs an injector — fault.New
// returns nil — so this arms only the interconnect site, which a
// single-socket machine can never query.)
func TestZeroRateSitesAreBitIdentical(t *testing.T) {
	ops := []struct {
		name string
		run  func(f *fixture) error
	}{
		{"SwapVA", func(f *fixture) error {
			a, _ := f.as.MapRegion(8)
			b, _ := f.as.MapRegion(8)
			return f.k.SwapVA(f.ctx, f.as, a, b, 8, DefaultOptions())
		}},
		{"SwapVAVec", func(f *fixture) error {
			a, _ := f.as.MapRegion(6)
			b, _ := f.as.MapRegion(6)
			reqs := []SwapReq{
				{VA1: a, VA2: b, Pages: 2},
				{VA1: a + 2<<mem.PageShift, VA2: b + 2<<mem.PageShift, Pages: 4},
			}
			_, err := f.k.SwapVAVec(f.ctx, f.as, reqs, DefaultOptions())
			return err
		}},
		{"SwapOverlap", func(f *fixture) error {
			base, _ := f.as.MapRegion(16)
			return f.k.SwapVA(f.ctx, f.as, base, base+4<<mem.PageShift, 12, DefaultOptions())
		}},
		{"HugeSwap", func(f *fixture) error {
			a := alignedRegion(t, f, hugePages)
			b := alignedRegion(t, f, hugePages)
			opts := DefaultOptions()
			opts.HugeSwap = true
			return f.k.SwapVA(f.ctx, f.as, a, b, hugePages, opts)
		}},
		{"Shootdown", func(f *fixture) error {
			f.ctx.ShootdownAll(f.as.ASID)
			return nil
		}},
	}
	for _, op := range ops {
		clean := newFixture(t)
		inj := newFaultFixture(t, 1234, planFor(trace.FaultInterconnect, 0.5))
		if err := op.run(clean); err != nil {
			t.Fatalf("%s (clean): %v", op.name, err)
		}
		if err := op.run(inj); err != nil {
			t.Fatalf("%s (zero-rate): %v", op.name, err)
		}
		if clean.ctx.Clock.Now() != inj.ctx.Clock.Now() {
			t.Errorf("%s: zero-rate sites changed the clock: %v vs %v",
				op.name, inj.ctx.Clock.Now(), clean.ctx.Clock.Now())
		}
		if *clean.ctx.Perf != *inj.ctx.Perf {
			t.Errorf("%s: zero-rate sites changed counters:\n clean %+v\n fault %+v",
				op.name, *clean.ctx.Perf, *inj.ctx.Perf)
		}
	}
}

// TestShootdownAckTimeoutsResend: at ack-drop rate 1 every target stays
// unacked through all MaxIPIResends rounds, so the sender pays exactly
// AckTimeoutNs·(1+2+…+2^(MaxIPIResends-1)) over a clean shootdown and
// re-sends to every other core each round.
func TestShootdownAckTimeoutsResend(t *testing.T) {
	clean := newFixture(t)
	clean.ctx.ShootdownAll(clean.as.ASID)

	f := newFaultFixture(t, 21, planFor(trace.FaultIPIAck, 1))
	f.ctx.ShootdownAll(f.as.ASID)
	wantResends := uint64(fault.MaxIPIResends) * uint64(f.m.NumCores()-1)
	if f.ctx.Perf.IPIResends != wantResends {
		t.Errorf("IPIResends = %d, want %d (every target, every round)",
			f.ctx.Perf.IPIResends, wantResends)
	}
	if got := f.ctx.Perf.IPIsSent - clean.ctx.Perf.IPIsSent; got != wantResends {
		t.Errorf("re-sends added %d IPIs, want %d", got, wantResends)
	}
	wantExtra := fault.AckTimeoutNs * sim.Time(int64(1)<<fault.MaxIPIResends-1)
	if got := f.ctx.Clock.Now() - clean.ctx.Clock.Now(); got != wantExtra {
		t.Errorf("ack timeouts cost %v over clean, want %v", got, wantExtra)
	}
}

// TestConcurrentSwapsWithInjectedFaults interleaves SwapVA traffic from
// three contexts round-robin over the same page pairs, one of them in the
// opposite direction, with transients and lock stalls firing. Every failed
// request rolls back, so the test asserts the invariant rollback must
// preserve under interleaving: at every page offset, the pair of ranges
// still holds the original pair of pages in some order — no page is lost
// or duplicated by a half-undone exchange.
func TestConcurrentSwapsWithInjectedFaults(t *testing.T) {
	var plan fault.Plan
	plan.Rate[trace.FaultSwapTransient] = 0.3
	plan.Rate[trace.FaultPTELockStall] = 0.2
	f := newFaultFixture(t, 77, plan)

	const pages = 64
	a, _ := f.as.MapRegion(pages)
	b, _ := f.as.MapRegion(pages)
	f.fillPages(t, a, pages, 0xA0)
	f.fillPages(t, b, pages, 0x0B)
	origA := f.snapshot(t, a, pages)
	origB := f.snapshot(t, b, pages)

	opts := DefaultOptions()
	opts.Flush = FlushNone // isolate PTE transactions from TLB coherence

	const iters = 150
	ctxs := make([]*machine.Context, 3)
	for g := range ctxs {
		ctxs[g] = f.m.NewContext(g % f.m.NumCores())
	}
	for i := 0; i < iters; i++ {
		for g, ctx := range ctxs {
			off := uint64((i*7+g*13)%(pages-4)) << mem.PageShift
			x, y := a+off, b+off
			if g == 1 {
				x, y = y, x // opposite direction over the same pairs
			}
			if err := f.k.SwapVA(ctx, f.as, x, y, 4, opts); err != nil && !errors.Is(err, ErrAgain) {
				t.Fatal(err)
			}
		}
	}

	gotA := f.snapshot(t, a, pages)
	gotB := f.snapshot(t, b, pages)
	rollbacks := uint64(0)
	for i := 0; i < pages; i++ {
		lo, hi := i*int(mem.PageSize), (i+1)*int(mem.PageSize)
		gA, gB := gotA[lo:hi], gotB[lo:hi]
		oA, oB := origA[lo:hi], origB[lo:hi]
		straight := bytes.Equal(gA, oA) && bytes.Equal(gB, oB)
		crossed := bytes.Equal(gA, oB) && bytes.Equal(gB, oA)
		if !straight && !crossed {
			t.Fatalf("page %d: contents are neither original nor exchanged — half-swapped PTEs", i)
		}
	}
	for _, ctx := range ctxs {
		rollbacks += ctx.Perf.SwapRollbacks
	}
	if rollbacks == 0 {
		t.Error("no rollbacks exercised at transient rate 0.3")
	}
}

// TestCheckArgsCarriesFaultingVA: validation errors identify the
// offending address via errors.As-extractable wrapping.
func TestCheckArgsCarriesFaultingVA(t *testing.T) {
	f := newFixture(t)
	a, _ := f.as.MapRegion(2)
	b, _ := f.as.MapRegion(2)

	err := f.k.SwapVA(f.ctx, f.as, a+1, b, 1, DefaultOptions())
	if !errors.Is(err, ErrMisaligned) {
		t.Fatalf("err = %v", err)
	}
	if va, ok := FaultingVA(err); !ok || va != a+1 {
		t.Errorf("FaultingVA = %#x,%v, want %#x,true", va, ok, a+1)
	}
	if want := fmt.Sprintf("%v: va %#x", ErrMisaligned, a+1); err.Error() != want {
		t.Errorf("message %q, want %q", err.Error(), want)
	}
	err = f.k.SwapVA(f.ctx, f.as, a, b+9, 1, DefaultOptions())
	if va, ok := FaultingVA(err); !ok || va != b+9 {
		t.Errorf("FaultingVA = %#x,%v, want %#x,true", va, ok, b+9)
	}

	hole, _ := f.as.MapRegion(1)
	f.as.Unmap(hole, 1, true)
	err = f.k.SwapVA(f.ctx, f.as, a, hole, 1, DefaultOptions())
	if !errors.Is(err, ErrNotMapped) {
		t.Fatalf("err = %v", err)
	}
	if va, ok := FaultingVA(err); !ok || va != hole {
		t.Errorf("FaultingVA = %#x,%v, want %#x,true", va, ok, hole)
	}

	var vaErr *VAError
	if !errors.As(err, &vaErr) || vaErr.VA != hole {
		t.Errorf("errors.As(VAError) failed on %v", err)
	}
}
