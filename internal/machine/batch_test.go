package machine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

// TestBatchChargingPredicate pins the one charging rule: every context
// settles declared runs in closed form unless the machine has a swap
// tier. Tracing (armed after New, as the CLIs do), fault plans and
// watermarks do not change the path.
func TestBatchChargingPredicate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		arm  func(*Machine)
		want bool
	}{
		{name: "default", cfg: Config{}, want: true},
		{name: "tracer armed after New", cfg: Config{},
			arm: func(m *Machine) { m.EnableTracing(16) }, want: true},
		{name: "fault plan", cfg: Config{Fault: fault.New(1, fault.Uniform(0.5))}, want: true},
		{name: "armed watermarks", cfg: Config{PhysBytes: 1 << 24,
			Watermarks: mem.Watermarks{Min: 8, Low: 16, High: 32}}, want: true},
		{name: "swap tier", cfg: Config{PhysBytes: 1 << 24,
			Swap: swaptier.Config{ZpoolBytes: 1 << 20}}, want: false},
	}
	for _, tc := range cases {
		tc.cfg.Cost = sim.XeonGold6130()
		m := MustNew(tc.cfg)
		if tc.arm != nil {
			tc.arm(m)
		}
		if got := m.NewContext(0).Env.Batch; got != tc.want {
			t.Errorf("%s: context Env.Batch = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// chargeSequence drives the same ChargeRun/ReadRun/WriteRun mix on a
// fresh context of m and returns the context and the words it read.
func chargeSequence(t *testing.T, m *Machine) (*Context, []uint64) {
	t.Helper()
	as := m.NewAddressSpace()
	if err := as.Map(mmu.MmapBase, 8); err != nil {
		t.Fatal(err)
	}
	ctx := m.NewContext(0)
	src := make([]uint64, 700)
	for i := range src {
		src[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	if err := as.WriteRun(&ctx.Env, mmu.MmapBase+64, src); err != nil {
		t.Fatal(err)
	}
	for _, r := range []mmu.Run{
		{VA: mmu.MmapBase, Words: 900, Write: true},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333},
		{VA: mmu.MmapBase + 4096, Words: 1, Write: true},
	} {
		if err := ctx.ChargeRun(as, r); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]uint64, 1200)
	if err := as.ReadRun(&ctx.Env, mmu.MmapBase+8, dst); err != nil {
		t.Fatal(err)
	}
	return ctx, dst
}

// TestObservabilityDoesNotPerturbCharging: a traced, watermarked machine
// settles the same run sequence to the identical clock, Perf and data as
// a plain one.
func TestObservabilityDoesNotPerturbCharging(t *testing.T) {
	plain, plainData := chargeSequence(t, MustNew(Config{Cost: sim.XeonGold6130()}))
	om := MustNew(Config{Cost: sim.XeonGold6130(), PhysBytes: 1 << 24,
		Watermarks: mem.Watermarks{Min: 8, Low: 16, High: 32}})
	om.EnableTracing(64)
	observed, observedData := chargeSequence(t, om)
	if observed.Trace == nil {
		t.Fatal("observed machine's context is not traced")
	}

	if got, want := observed.Clock.Now(), plain.Clock.Now(); got != want {
		t.Errorf("clock diverges: observed %v, plain %v", got, want)
	}
	if *observed.Perf != *plain.Perf {
		t.Errorf("perf diverges:\nobserved: %+v\nplain:    %+v", *observed.Perf, *plain.Perf)
	}
	for i := range plainData {
		if observedData[i] != plainData[i] {
			t.Fatalf("data diverges at word %d: %#x vs %#x", i, observedData[i], plainData[i])
		}
	}
}

// TestContextChargeRunParity is the machine-level behavioural parity
// check: the same run sequence settled in closed form and forced down the
// per-word path must land on identical clocks and counters (modulo the
// fallback count), through the public Context.ChargeRun entry and the
// machine-owned LLC/TLB/bus wiring.
func TestContextChargeRunParity(t *testing.T) {
	build := func() (*Context, *mmu.AddressSpace) {
		m := MustNew(Config{Cost: sim.XeonGold6130()})
		as := m.NewAddressSpace()
		if err := as.Map(mmu.MmapBase, 8); err != nil {
			t.Fatal(err)
		}
		return m.NewContext(0), as
	}
	ctxB, asB := build()
	ctxE, asE := build()
	ctxE.Env.Batch = false
	runs := []mmu.Run{
		{VA: mmu.MmapBase, Words: 900, Write: true},
		{VA: mmu.MmapBase + 128, Words: 900},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333}, // warm re-scan
		{VA: mmu.MmapBase + 4096, Words: 1, Write: true},
	}
	for _, r := range runs {
		if err := ctxB.ChargeRun(asB, r); err != nil {
			t.Fatal(err)
		}
		if err := ctxE.ChargeRun(asE, r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ctxB.Clock.Now(), ctxE.Clock.Now(); got != want {
		t.Errorf("clock diverges: batched %v, exact %v", got, want)
	}
	pB, pE := *ctxB.Perf, *ctxE.Perf
	if pB.RunFallbacks != 0 || pE.RunFallbacks != uint64(len(runs)) {
		t.Errorf("fallback counts: batched %d (want 0), exact %d (want %d)",
			pB.RunFallbacks, pE.RunFallbacks, len(runs))
	}
	pB.RunFallbacks, pE.RunFallbacks = 0, 0
	if pB != pE {
		t.Errorf("perf diverges:\nbatched: %+v\nexact:   %+v", pB, pE)
	}
}
