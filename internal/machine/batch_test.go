package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

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

// TestContextChargeRunParity is the machine-level parity check on a
// swap-armed machine: a ChargeRun/ReadRun/WriteRun sequence over a
// working set twice the frame pool, so page-ins reclaim in the middle of
// runs, must leave the clock, the counters, the data read and the tier
// exactly where the same accesses issued as ReadWord/WriteWord loops on
// an identical machine leave them. Only the run counts may differ.
func TestContextChargeRunParity(t *testing.T) {
	const pages, poolPages = 96, 48
	build := func() (*Machine, *Context, *mmu.AddressSpace, uint64) {
		m := MustNew(Config{Cost: sim.XeonGold6130(), PhysBytes: poolPages << mem.PageShift,
			Swap: swaptier.Config{ZpoolBytes: 4 << 20}})
		as := m.NewAddressSpace()
		base, err := as.MapRegion(pages)
		if err != nil {
			t.Fatal(err)
		}
		return m, m.NewContext(0), as, base
	}
	mR, ctxR, asR, base := build()
	mW, ctxW, asW, _ := build()

	// Write runs move data; charge-only runs are loads, which a ReadWord
	// loop can issue without storing anything.
	ops := []mmu.Run{
		{VA: base, Words: pages * mem.PageSize / 8, Write: true}, // every page: twice the pool
		{VA: base + 64, Words: 5000},                             // the oldest pages, swapped out
		{VA: base + 16, Stride: 72, Words: 4000},
		{VA: base + 24, Stride: mem.PageSize, Words: pages}, // one word a page
		{VA: base + 8<<mem.PageShift, Words: 3000, Write: true},
		{VA: base + 5<<mem.PageShift + 8, Words: 9000},
	}
	var readR, readW []uint64
	for i, r := range ops {
		stride := uint64(max(r.Stride, 8))
		var data []uint64
		if r.Write || r.Stride == 0 {
			data = make([]uint64, r.Words)
			for j := range data {
				data[j] = uint64(i)<<32 | uint64(j)*0x9e3779b9
			}
		}
		var err error
		switch {
		case r.Write:
			err = asR.WriteRun(&ctxR.Env, r.VA, data)
		case data != nil:
			err = asR.ReadRun(&ctxR.Env, r.VA, data)
			readR = append(readR, data...)
		default:
			err = ctxR.ChargeRun(asR, r)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		for j := 0; j < r.Words; j++ {
			va := r.VA + uint64(j)*stride
			if r.Write {
				err = asW.WriteWord(&ctxW.Env, va, data[j])
			} else {
				var v uint64
				v, err = asW.ReadWord(&ctxW.Env, va)
				if data != nil {
					readW = append(readW, v)
				}
			}
			if err != nil {
				t.Fatalf("op %d word %d: %v", i, j, err)
			}
		}
	}

	if got, want := ctxR.Clock.Now(), ctxW.Clock.Now(); got != want {
		t.Errorf("clock diverges: runs %v, words %v", got, want)
	}
	for i := range readR {
		if readR[i] != readW[i] {
			t.Fatalf("data diverges at word %d: %#x vs %#x", i, readR[i], readW[i])
		}
	}
	pR, pW := *ctxR.Perf, *ctxW.Perf
	if pR.RunFallbacks != uint64(len(ops)) {
		t.Errorf("RunFallbacks = %d, want %d (one per run on a swap-armed space)", pR.RunFallbacks, len(ops))
	}
	pR.ChargeRuns, pR.RunWords, pR.RunFallbacks = 0, 0, 0
	if pR != pW {
		t.Errorf("perf diverges:\nruns:  %+v\nwords: %+v", pR, pW)
	}
	if sR, sW := mR.SwapTier().Stats(), mW.SwapTier().Stats(); sR != sW {
		t.Errorf("tier diverges:\nruns:  %+v\nwords: %+v", sR, sW)
	}
	kR, kW := mR.KswapdPerf(), mW.KswapdPerf()
	if kR == nil || kW == nil {
		t.Fatal("the sequence never woke kswapd: page-ins did not reclaim")
	}
	if *kR != *kW {
		t.Errorf("kswapd diverges:\nruns:  %+v\nwords: %+v", *kR, *kW)
	}
	if pR.SwapInPages == 0 || kR.ReclaimRuns == 0 {
		t.Errorf("%d pages faulted back in, %d reclaim runs: want both > 0",
			pR.SwapInPages, kR.ReclaimRuns)
	}
}
