package machine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/trace"
)

// TestSwapZeroValueParity is the plane's admission contract: a machine
// whose Config carries an explicitly zero swaptier.Config must behave —
// clock, counters, mapping semantics — exactly like one that never heard
// of the swap plane. A future change that installs the swapper (or
// flips Map to lazy) unconditionally fails here.
func TestSwapZeroValueParity(t *testing.T) {
	build := func(withField bool) (*Context, *mmu.AddressSpace) {
		cfg := Config{
			Cost:       sim.XeonGold6130(),
			PhysBytes:  1 << 24,
			Watermarks: mem.Watermarks{Min: 8, Low: 16, High: 32},
		}
		if withField {
			cfg.Swap = swaptier.Config{} // the zero value: disabled
		}
		m := MustNew(cfg)
		if m.SwapEnabled() {
			t.Fatal("zero swap config armed the plane")
		}
		as := m.NewAddressSpace()
		if _, err := as.MapRegion(64); err != nil {
			t.Fatal(err)
		}
		return m.NewContext(0), as
	}
	ctxA, asA := build(false)
	ctxB, asB := build(true)
	// Eager mapping (the historical behaviour) must survive: without a
	// swapper there is no demand-fault path to materialise pages later.
	if asA.MappedPages() != asB.MappedPages() {
		t.Fatalf("mapped pages diverge: %d vs %d", asA.MappedPages(), asB.MappedPages())
	}
	run := func(ctx *Context, as *mmu.AddressSpace) {
		base, _ := as.MapRegion(4)
		buf := make([]uint64, 2048)
		for i := range buf {
			buf[i] = uint64(i) * 0x9e37
		}
		if err := as.WriteRun(&ctx.Env, base, buf); err != nil {
			t.Fatal(err)
		}
		if err := as.ReadRun(&ctx.Env, base, buf); err != nil {
			t.Fatal(err)
		}
	}
	run(ctxA, asA)
	run(ctxB, asB)
	if ctxA.Clock.Now() != ctxB.Clock.Now() {
		t.Errorf("clock diverges: %v vs %v", ctxA.Clock.Now(), ctxB.Clock.Now())
	}
	if *ctxA.Perf != *ctxB.Perf {
		t.Errorf("perf diverges:\nwithout field: %+v\nzero field:    %+v", *ctxA.Perf, *ctxB.Perf)
	}
}

// swapFixture: a 64-frame pool backed by a roomy zpool, so any working
// set past 64 pages must cycle through the tier.
func swapFixture(t *testing.T) (*Machine, *Context, *mmu.AddressSpace) {
	t.Helper()
	m := MustNew(Config{
		Cost:      sim.XeonGold6130(),
		PhysBytes: 64 << mem.PageShift,
		Swap:      swaptier.Config{ZpoolBytes: 4 << 20},
	})
	return m, m.NewContext(0), m.NewAddressSpace()
}

// TestSwapDemandFaultRoundTrip drives a working set twice the pool
// through charged accesses: pages materialise on demand, kswapd demotes
// the cold tail, and every value written comes back intact after its
// page's swap-out/fault-in round trip.
func TestSwapDemandFaultRoundTrip(t *testing.T) {
	m, ctx, as := swapFixture(t)
	const pages = 128
	base, err := as.MapRegion(pages)
	if err != nil {
		t.Fatal(err)
	}
	if used := m.Phys.Usage().InUse; used != 0 {
		t.Fatalf("lazy map materialised %d frames up front", used)
	}
	// One distinct word per page, written through the charged path.
	for p := uint64(0); p < pages; p++ {
		if err := as.WriteWord(&ctx.Env, base+p<<mem.PageShift, 0xABC0+p); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctx.Perf.ZeroFillPages; got != pages {
		t.Errorf("ZeroFillPages = %d, want %d (every first touch is a minor fault)", got, pages)
	}
	kp := m.KswapdPerf()
	if kp == nil || kp.SwapOutPages == 0 {
		t.Fatalf("128 pages on a 64-frame pool never woke kswapd (perf: %+v)", kp)
	}
	if m.SwappedPages() == 0 {
		t.Fatal("nothing left in the tier after overcommitting the pool")
	}
	inBefore := ctx.Perf.SwapInPages
	for p := uint64(0); p < pages; p++ {
		v, err := as.ReadWord(&ctx.Env, base+p<<mem.PageShift)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0xABC0+p {
			t.Fatalf("page %d: read %#x, want %#x (tier round trip corrupted data)", p, v, 0xABC0+p)
		}
	}
	if ctx.Perf.SwapInPages == inBefore {
		t.Error("re-reading the overcommitted set caused no major faults")
	}
	// Pool invariant: demand faulting never overcommits physical memory.
	if used := m.Phys.Usage().InUse; used > 64 {
		t.Errorf("%d frames in use on a 64-frame pool", used)
	}
}

// TestDiscardAndDrainEmptyTheTier pins the leak invariant the soak
// harness relies on: DiscardPages releases every slot of a dead range,
// and a subsequent full-region drain leaves zero swapped pages.
func TestDiscardAndDrainEmptyTheTier(t *testing.T) {
	m, ctx, as := swapFixture(t)
	const pages = 128
	base, err := as.MapRegion(pages)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, mem.PageSize/8)
	for p := uint64(0); p < pages; p++ {
		for i := range buf {
			buf[i] = p<<32 | uint64(i)
		}
		if err := as.WriteRun(&ctx.Env, base+p<<mem.PageShift, buf); err != nil {
			t.Fatal(err)
		}
	}
	if m.SwappedPages() == 0 {
		t.Fatal("fixture never swapped")
	}
	// Discard the upper three quarters (dead data): their frames and
	// slots must all come home, with no tier slot left orphaned.
	discarded := ctx.DiscardPages(as, base+(pages/4)<<mem.PageShift, 3*pages/4)
	if discarded == 0 {
		t.Fatal("discard found nothing")
	}
	// Drain the surviving quarter — 32 pages against 64 freed frames, so
	// a complete drain is guaranteed — and the tier must end empty.
	if _, complete := ctx.DrainSwapped(as, base, pages/4, 1); !complete {
		t.Fatal("drain of the surviving quarter did not complete")
	}
	if got := m.SwappedPages(); got != 0 {
		t.Errorf("%d tier slots survived discard+drain (leak)", got)
	}
	st := m.SwapTier().Stats()
	if st.ZpoolUsed != 0 || st.FarUsed != 0 {
		t.Errorf("tier budgets not returned: %+v", st)
	}
	// The drained quarter must still carry its data.
	for p := uint64(0); p < pages/4; p++ {
		v, err := as.ReadWord(&ctx.Env, base+p<<mem.PageShift)
		if err != nil {
			t.Fatal(err)
		}
		if v != p<<32 {
			t.Fatalf("page %d corrupted after discard+drain: %#x", p, v)
		}
	}
}

// TestDirectReclaimFreesFrames: the synchronous path must free at least
// a batch when cold pages exist, charging the caller.
func TestDirectReclaimFreesFrames(t *testing.T) {
	m, ctx, as := swapFixture(t)
	base, err := as.MapRegion(48)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 48; p++ {
		if err := as.WriteWord(&ctx.Env, base+p<<mem.PageShift, p); err != nil {
			t.Fatal(err)
		}
	}
	free := m.Phys.FreeFrames()
	t0 := ctx.Clock.Now()
	freed := ctx.DirectReclaim()
	if freed == 0 {
		t.Fatal("direct reclaim freed nothing with 48 cold resident pages")
	}
	if got := m.Phys.FreeFrames(); got != free+freed {
		t.Errorf("free frames %d, want %d", got, free+freed)
	}
	if ctx.Clock.Now() == t0 {
		t.Error("direct reclaim charged nothing to the caller")
	}
	if ctx.Perf.DirectReclaims != 1 {
		t.Errorf("DirectReclaims = %d, want 1", ctx.Perf.DirectReclaims)
	}
}

// TestReclaimFarWriteFaultsCountBySite: a far-tier write failure in the
// reclaimer is a fault event like every other site's (Arg1 = site,
// Arg2 = VA), so the per-site fault counter of a swap-armed machine that
// arms only far-write counts every far-write the machine injected.
func TestReclaimFarWriteFaultsCountBySite(t *testing.T) {
	var plan fault.Plan
	plan.Rate[trace.FaultFarWrite] = 0.5
	m := MustNew(Config{
		Cost:      sim.XeonGold6130(),
		PhysBytes: 64 << mem.PageShift,
		Swap:      swaptier.Config{FarBytes: 4 << 20}, // no zpool: every page-out goes far
		Fault:     fault.New(7, plan),
	})
	tr := m.EnableTracing(0)
	ctx, as := m.NewContext(0), m.NewAddressSpace()
	const pages = 128
	base, err := as.MapRegion(pages)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		if err := as.WriteWord(&ctx.Env, base+p<<mem.PageShift, 0xABC0+p); err != nil {
			t.Fatal(err)
		}
	}
	injected := ctx.Perf.FaultsInjected
	if kp := m.KswapdPerf(); kp != nil {
		injected += kp.FaultsInjected
	}
	if injected == 0 {
		t.Fatal("128 pages on a 64-frame pool injected no far-write fault")
	}
	if got := trace.SnapshotOf(tr).FaultsBySite[trace.FaultFarWrite]; got != injected {
		t.Errorf("FaultsBySite[far_write] = %d, want the %d far-write faults injected", got, injected)
	}
}
