package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestPagesFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {40960, 10}, {40961, 11},
	}
	for _, c := range cases {
		if got := PagesFor(c.n); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSwappable(t *testing.T) {
	p := DefaultPolicy()
	if p.Swappable(9 * mem.PageSize) {
		t.Error("9 pages swappable at threshold 10")
	}
	if !p.Swappable(10 * mem.PageSize) {
		t.Error("10 pages not swappable")
	}
	if !p.Swappable(9*mem.PageSize + 1) {
		t.Error("ceil to 10 pages not swappable")
	}
	off := MemmovePolicy()
	if off.Swappable(100 * mem.PageSize) {
		t.Error("memmove policy claims swappable")
	}
}

func TestIfSwapAlign(t *testing.T) {
	p := DefaultPolicy()
	big := 12 * mem.PageSize
	small := 100
	if got := p.IfSwapAlign(big, 0x1001); got != 0x2000 {
		t.Errorf("align big: %#x, want 0x2000", got)
	}
	if got := p.IfSwapAlign(big, 0x2000); got != 0x2000 {
		t.Errorf("already aligned moved: %#x", got)
	}
	if got := p.IfSwapAlign(small, 0x1001); got != 0x1001 {
		t.Errorf("small aligned: %#x", got)
	}
}

func TestAlignPage(t *testing.T) {
	if AlignPage(0) != 0 || AlignPage(1) != 4096 || AlignPage(4096) != 4096 || AlignPage(4097) != 8192 {
		t.Error("AlignPage wrong")
	}
	if !PageAligned(8192) || PageAligned(8193) {
		t.Error("PageAligned wrong")
	}
}

func TestMoveObjectRouting(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	k := kernel.New(m)
	as := m.NewAddressSpace()
	ctx := m.NewContext(0)
	src, _ := as.MapRegion(16)
	dst, _ := as.MapRegion(16)

	pol := DefaultPolicy()

	// Large object: must swap.
	method, err := pol.MoveObject(ctx, k, as, src, dst, 12*mem.PageSize)
	if err != nil || method != MovedSwapVA {
		t.Fatalf("large: method=%v err=%v", method, err)
	}
	// Small object: must memmove.
	method, err = pol.MoveObject(ctx, k, as, src, dst, 2*mem.PageSize)
	if err != nil || method != MovedMemmove {
		t.Fatalf("small: method=%v err=%v", method, err)
	}
	// Misaligned large object: defensive memmove.
	method, err = pol.MoveObject(ctx, k, as, src+8, dst+8, 12*mem.PageSize)
	if err != nil || method != MovedMemmove {
		t.Fatalf("misaligned: method=%v err=%v", method, err)
	}
	// Identity move: nothing.
	method, err = pol.MoveObject(ctx, k, as, src, src, 12*mem.PageSize)
	if err != nil || method != MovedNothing {
		t.Fatalf("identity: method=%v err=%v", method, err)
	}
	// Zero length: nothing.
	method, err = pol.MoveObject(ctx, k, as, src, dst, 0)
	if err != nil || method != MovedNothing {
		t.Fatalf("zero: method=%v err=%v", method, err)
	}
	// Negative length: error.
	if _, err = pol.MoveObject(ctx, k, as, src, dst, -1); err == nil {
		t.Fatal("negative length accepted")
	}
	// Baseline policy: large object still memmoves.
	base := MemmovePolicy()
	method, err = base.MoveObject(ctx, k, as, src, dst, 12*mem.PageSize)
	if err != nil || method != MovedMemmove {
		t.Fatalf("baseline: method=%v err=%v", method, err)
	}
}

// TestMoveObjectDegradesUnderSwapFaults: when every swap faults,
// MoveObject retries and then memmoves the page span, as SwapOrCopy does:
// the bytes arrive, no error comes back, and the method says memmove.
func TestMoveObjectDegradesUnderSwapFaults(t *testing.T) {
	plan, err := fault.ParsePlanWithRate("swapva=1", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130(), Fault: fault.New(7, plan)})
	k, as, ctx := kernel.New(m), m.NewAddressSpace(), m.NewContext(0)
	src, _ := as.MapRegion(12)
	dst, _ := as.MapRegion(12)
	want := bytes.Repeat([]byte{0x3c, 0xc3}, 6*mem.PageSize)
	if err := as.RawWrite(src, want); err != nil {
		t.Fatal(err)
	}
	pol := DefaultPolicy()
	method, err := pol.MoveObject(ctx, k, as, src, dst, len(want))
	if err != nil || method != MovedMemmove {
		t.Fatalf("method=%v err=%v, want memmove and no error", method, err)
	}
	got := make([]byte, len(want))
	if err := as.RawRead(dst, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("degraded move did not deliver the source bytes")
	}
	if p := ctx.Perf; p.SwapRetries != swapRetries || p.SwapFallbacks != 1 {
		t.Errorf("%d retries, %d fallbacks; want %d, 1", p.SwapRetries, p.SwapFallbacks, swapRetries)
	}
}

// Property: MoveObject delivers the source bytes to the destination
// regardless of the method chosen.
func TestMoveObjectDeliversBytes(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	k := kernel.New(m)
	as := m.NewAddressSpace()
	ctx := m.NewContext(0)
	pol := DefaultPolicy()

	prop := func(pagesRaw uint8, fill byte) bool {
		pages := int(pagesRaw)%15 + 1
		length := pages*mem.PageSize - 24 // not an exact page multiple
		src, err := as.MapRegion(pages)
		if err != nil {
			return false
		}
		dst, err := as.MapRegion(pages)
		if err != nil {
			return false
		}
		data := bytes.Repeat([]byte{fill ^ 0x5A}, length)
		as.RawWrite(src, data)
		if _, err := pol.MoveObject(ctx, k, as, src, dst, length); err != nil {
			return false
		}
		got := make([]byte, length)
		as.RawRead(dst, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMoveMethodString(t *testing.T) {
	if MovedNothing.String() != "nothing" || MovedMemmove.String() != "memmove" ||
		MovedSwapVA.String() != "swapva" || MoveMethod(7).String() == "" {
		t.Error("MoveMethod strings wrong")
	}
}

func TestApplicabilityTableI(t *testing.T) {
	// Exact reproduction of Table I.
	want := map[GCPhase]map[Optimization]bool{
		PhaseFullCompact:    {OptSwapVA: true, OptAggregation: true, OptPMDCaching: true, OptOverlap: true},
		PhaseMinorCopy:      {OptSwapVA: true, OptAggregation: true, OptPMDCaching: true, OptOverlap: false},
		PhaseConcurrentEvac: {OptSwapVA: true, OptAggregation: false, OptPMDCaching: true, OptOverlap: false},
	}
	for _, ph := range Phases() {
		for _, opt := range Optimizations() {
			if got := Applicable(ph, opt); got != want[ph][opt] {
				t.Errorf("Applicable(%v, %v) = %v, want %v", ph, opt, got, want[ph][opt])
			}
		}
	}
	if Applicable(PhaseFullCompact, Optimization(99)) {
		t.Error("unknown optimisation applicable")
	}
}

func TestValidateForDisablesOverlap(t *testing.T) {
	p := DefaultPolicy()
	adjusted := p.ValidateFor(PhaseMinorCopy)
	if adjusted.Swap.Overlap {
		t.Error("overlap not disabled for minor copy")
	}
	if !p.Swap.Overlap {
		t.Error("ValidateFor mutated the receiver")
	}
	full := p.ValidateFor(PhaseFullCompact)
	if !full.Swap.Overlap {
		t.Error("overlap disabled for full compaction")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, ph := range Phases() {
		if ph.String() == "unknown phase" {
			t.Errorf("phase %d has no name", ph)
		}
	}
	for _, o := range Optimizations() {
		if o.String() == "unknown optimization" {
			t.Errorf("optimization %d has no name", o)
		}
	}
	if GCPhase(9).String() != "unknown phase" || Optimization(9).String() != "unknown optimization" {
		t.Error("unknown enums mislabelled")
	}
}

// TestSwapOrCopy: on a healthy machine SwapOrCopy is one SwapVA call; on
// a machine whose every swap position faults it retries swapRetries
// times, then degrades to a memmove that still delivers the bytes at va2
// to va1.
func TestSwapOrCopy(t *testing.T) {
	plan, err := fault.ParsePlanWithRate("swapva=1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                 string
		fault                *fault.Injector
		calls, retries, fall uint64
	}{
		{"healthy", nil, 1, 0, 0},
		{"every swap faults", fault.New(7, plan), swapRetries + 1, swapRetries, 1},
	} {
		m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130(), Fault: c.fault})
		k, as, ctx := kernel.New(m), m.NewAddressSpace(), m.NewContext(0)
		va1, _ := as.MapRegion(4)
		va2, _ := as.MapRegion(4)
		want := bytes.Repeat([]byte{0xa5}, 4*mem.PageSize)
		if err := as.RawWrite(va2, want); err != nil {
			t.Fatal(err)
		}
		if err := SwapOrCopy(ctx, k, as, va1, va2, 4, kernel.DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := make([]byte, len(want))
		if err := as.RawRead(va1, got); err != nil {
			t.Fatal(err)
		}
		p := ctx.Perf
		if !bytes.Equal(got, want) || p.SwapVACalls != c.calls || p.SwapRetries != c.retries || p.SwapFallbacks != c.fall {
			t.Errorf("%s: bytes delivered %v, %d SwapVA calls, %d retries, %d fallbacks; want true, %d, %d, %d",
				c.name, bytes.Equal(got, want), p.SwapVACalls, p.SwapRetries, p.SwapFallbacks, c.calls, c.retries, c.fall)
		}
	}
}

// machinesOf is a machine constructor for the calibration functions: a
// fresh machine with the given cost model per call.
func machinesOf(cost *sim.CostModel) func() (*machine.Machine, error) {
	return func() (*machine.Machine, error) { return machine.New(machine.Config{Cost: cost}) }
}

// TestMemmoveColumnIgnoresSwapFaults: a degraded swap moves the bytes by
// memmove on the machine Fig. 10 then measures memmove on, so it warms
// the LLC and the TLB; the measured memmove must still start cold and
// cost what it costs on a healthy machine.
func TestMemmoveColumnIgnoresSwapFaults(t *testing.T) {
	plan, err := fault.ParsePlanWithRate("swapva=1", 0)
	if err != nil {
		t.Fatal(err)
	}
	faulty := func() (*machine.Machine, error) {
		return machine.New(machine.Config{Cost: sim.XeonGold6130(), Fault: fault.New(7, plan)})
	}
	for _, pages := range []int{1, 4, 12} {
		healthy, err := MeasureMoveCosts(machinesOf(sim.XeonGold6130()), pages)
		if err != nil {
			t.Fatal(err)
		}
		degraded, err := MeasureMoveCosts(faulty, pages)
		if err != nil {
			t.Fatal(err)
		}
		if degraded.SwapVANs == healthy.SwapVANs {
			t.Errorf("%d pages: faulted swap cost %v, healthy %v; the plan did not fire", pages, degraded.SwapVANs, healthy.SwapVANs)
		}
		if degraded.MemmoveNs != healthy.MemmoveNs {
			t.Errorf("%d pages: memmove after a degraded swap cost %v, healthy %v", pages, degraded.MemmoveNs, healthy.MemmoveNs)
		}
	}
}

func TestBreakEvenMatchesPaperThreshold(t *testing.T) {
	be, err := BreakEvenPages(machinesOf(sim.XeonGold6130()), nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if be != DefaultThresholdPages {
		t.Errorf("Gold 6130 break-even = %d pages, paper threshold is %d", be, DefaultThresholdPages)
	}
	be2, err := BreakEvenPages(machinesOf(sim.XeonGold6240()), nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if be2 < 4 || be2 > 16 {
		t.Errorf("Gold 6240 break-even = %d pages, expected near 10", be2)
	}
}

// TestBreakEvenReadsSweep checks that BreakEvenPages reads a sweep's
// points instead of measuring them again, and measures only past its end:
// a sweep that covers the break-even builds no machine, a shorter one
// builds one per page count past it, and both find the same point.
func TestBreakEvenReadsSweep(t *testing.T) {
	built := 0
	counted := func() (*machine.Machine, error) {
		built++
		return machinesOf(sim.XeonGold6130())()
	}
	for _, swept := range []int{12, 4} {
		pts, err := ThresholdSweep(machinesOf(sim.XeonGold6130()), swept)
		if err != nil {
			t.Fatal(err)
		}
		built = 0
		be, err := BreakEvenPages(counted, pts, 64)
		if err != nil {
			t.Fatal(err)
		}
		if be != DefaultThresholdPages {
			t.Errorf("sweep of %d: break-even = %d pages, want %d", swept, be, DefaultThresholdPages)
		}
		if want := max(be-swept, 0); built != want {
			t.Errorf("sweep of %d: built %d machines, want %d", swept, built, want)
		}
	}
}

func TestThresholdSweepMonotoneGap(t *testing.T) {
	pts, err := ThresholdSweep(machinesOf(sim.XeonGold6130()), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("got %d points", len(pts))
	}
	// memmove grows much faster than SwapVA with page count.
	prevGap := pts[0].MemmoveNs - pts[0].SwapVANs
	for _, p := range pts[1:] {
		gap := p.MemmoveNs - p.SwapVANs
		if gap <= prevGap {
			t.Fatalf("memmove-swap gap not increasing at %d pages", p.Pages)
		}
		prevGap = gap
	}
}
