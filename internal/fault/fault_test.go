package fault

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestParsePlan(t *testing.T) {
	cases := []struct {
		spec string
		rate float64
		want map[Site]float64
		err  bool
	}{
		{spec: "", want: nil},
		{spec: "swapva=0.5", want: map[Site]float64{trace.FaultSwapTransient: 0.5}},
		{spec: "swap_transient:0.5", want: map[Site]float64{trace.FaultSwapTransient: 0.5}},
		{spec: " pte-lock = 0.1 , poison = 1e-4 ", want: map[Site]float64{
			trace.FaultPTELockStall: 0.1, trace.FaultFramePoison: 1e-4}},
		{spec: "far-write=0.2", want: map[Site]float64{trace.FaultFarWrite: 0.2}},
		{spec: "all=0.01", want: map[Site]float64{
			trace.FaultPTELockStall: 0.01, trace.FaultIPIAck: 0.01,
			trace.FaultSwapTransient: 0.01, trace.FaultFramePoison: 0.01,
			trace.FaultInterconnect: 0.01, trace.FaultFarWrite: 0.01,
			trace.FaultArbiterStall: 0.01}},
		// Base rate applies everywhere; spec entries override per site.
		{spec: "swapva=0.9", rate: 0.01, want: map[Site]float64{
			trace.FaultPTELockStall: 0.01, trace.FaultIPIAck: 0.01,
			trace.FaultSwapTransient: 0.9, trace.FaultFramePoison: 0.01,
			trace.FaultInterconnect: 0.01, trace.FaultFarWrite: 0.01,
			trace.FaultArbiterStall: 0.01}},
		{spec: "swapva=0", rate: 0.01, want: map[Site]float64{
			trace.FaultPTELockStall: 0.01, trace.FaultIPIAck: 0.01,
			trace.FaultFramePoison: 0.01, trace.FaultInterconnect: 0.01,
			trace.FaultFarWrite:     0.01,
			trace.FaultArbiterStall: 0.01}},
		{spec: "bogus=0.1", err: true},
		{spec: "swapva", err: true},
		{spec: "swapva=1.5", err: true},
		{spec: "swapva=-0.1", err: true},
		{spec: "", rate: 2, err: true},
		// strconv.ParseFloat accepts "NaN" and NaN defeats range checks
		// (both comparisons are false), so it needs explicit rejection —
		// as do the infinities and a NaN base rate.
		{spec: "swapva=NaN", err: true},
		{spec: "all=nan", err: true},
		{spec: "swapva=+Inf", err: true},
		{spec: "swapva=-Inf", err: true},
		{spec: "", rate: math.NaN(), err: true},
		{spec: "", rate: math.Inf(1), err: true},
		{spec: "", rate: -1, err: true},
	}
	for _, c := range cases {
		p, err := ParsePlanWithRate(c.spec, c.rate)
		if c.err {
			if err == nil {
				t.Errorf("ParsePlanWithRate(%q, %g): want error, got %+v", c.spec, c.rate, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlanWithRate(%q, %g): %v", c.spec, c.rate, err)
			continue
		}
		for s := 0; s < trace.NumFaultSites; s++ {
			if got, want := p.Rate[s], c.want[Site(s)]; got != want {
				t.Errorf("ParsePlanWithRate(%q, %g): site %v rate = %g, want %g",
					c.spec, c.rate, Site(s), got, want)
			}
		}
	}
}

func TestNewReturnsNilForInactivePlan(t *testing.T) {
	if inj := New(42, Plan{}); inj != nil {
		t.Errorf("New with zero plan = %+v, want nil", inj)
	}
	if inj := New(42, Uniform(0.1)); inj == nil {
		t.Error("New with active plan = nil")
	}
}

func TestNilInjectorIsSafeAndInert(t *testing.T) {
	var inj *Injector
	if inj.Active() {
		t.Error("nil injector Active")
	}
	for s := 0; s < trace.NumFaultSites; s++ {
		if inj.Enabled(Site(s)) || inj.Fire(Site(s)) {
			t.Errorf("nil injector fired site %v", Site(s))
		}
	}
	if inj.FramePoisoned(7) {
		t.Error("nil injector poisoned a frame")
	}
	if inj.Plan().Active() {
		t.Error("nil injector reports an active plan")
	}
}

// TestFireDeterminism is the replay contract: the same (seed, plan)
// produce the identical per-site decision stream, different seeds do not.
func TestFireDeterminism(t *testing.T) {
	const n = 2000
	stream := func(seed int64) []bool {
		inj := New(seed, Uniform(0.3))
		var out []bool
		for s := 0; s < trace.NumFaultSites; s++ {
			for k := 0; k < n; k++ {
				out = append(out, inj.Fire(Site(s)))
			}
		}
		return out
	}
	a, b := stream(7), stream(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := stream(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 produced identical decision streams")
	}
}

func TestFireRateIsRoughlyHonoured(t *testing.T) {
	const n = 20000
	inj := New(1, Uniform(0.25))
	hits := 0
	for k := 0; k < n; k++ {
		if inj.Fire(trace.FaultSwapTransient) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("rate 0.25 fired at %.3f over %d rolls", got, n)
	}
}

// TestZeroRateSiteConsumesNoSequence: disabling one site must not shift
// another site's stream, and a zero-rate site never fires — together the
// property that makes a zero-rate plan bit-identical to a nil injector.
func TestZeroRateSiteConsumesNoSequence(t *testing.T) {
	plan := Plan{}
	plan.Rate[trace.FaultSwapTransient] = 0.5
	inj := New(3, plan)
	var want []bool
	for k := 0; k < 100; k++ {
		want = append(want, inj.Fire(trace.FaultSwapTransient))
	}

	inj2 := New(3, plan)
	for k := 0; k < 100; k++ {
		// Interleave queries to a disabled site: must not perturb the
		// enabled site's stream.
		if inj2.Fire(trace.FaultPTELockStall) {
			t.Fatal("zero-rate site fired")
		}
		if got := inj2.Fire(trace.FaultSwapTransient); got != want[k] {
			t.Fatalf("decision %d shifted by zero-rate queries", k)
		}
	}
}

// TestFramePoisonIsStable: poison is keyed by frame, not by query order.
func TestFramePoisonIsStable(t *testing.T) {
	plan := Plan{}
	plan.Rate[trace.FaultFramePoison] = 0.3
	inj := New(11, plan)
	first := map[uint64]bool{}
	poisoned := 0
	for f := uint64(0); f < 1000; f++ {
		first[f] = inj.FramePoisoned(f)
		if first[f] {
			poisoned++
		}
	}
	if poisoned == 0 || poisoned == 1000 {
		t.Fatalf("poisoned %d/1000 frames at rate 0.3", poisoned)
	}
	for f := uint64(999); ; f-- {
		if inj.FramePoisoned(f) != first[f] {
			t.Fatalf("frame %d changed poison status on re-query", f)
		}
		if f == 0 {
			break
		}
	}
}

func TestPlanStringRoundTrips(t *testing.T) {
	plan, err := ParsePlan("swapva=0.25,poison=0.125")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(plan.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", plan.String(), err)
	}
	if back != plan {
		t.Errorf("round trip changed plan: %q vs %q", back.String(), plan.String())
	}
}
