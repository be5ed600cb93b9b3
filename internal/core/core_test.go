package core

import (
	"testing"

	"repro/internal/fault"
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
