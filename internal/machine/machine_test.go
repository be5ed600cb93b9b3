package machine

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/sim"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	return MustNew(Config{Cost: sim.XeonGold6130()})
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil cost model accepted")
	}
	bad := *sim.XeonGold6130()
	bad.Cores = 0
	if _, err := New(Config{Cost: &bad}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

// TestContextChargesMatchNewEnv: the per-access charges a machine
// quantises once and installs on every context equal the table a bare
// mmu.NewEnv builds for the same cost model, and the cost-model figures
// they stand for — on every predefined model.
func TestContextChargesMatchNewEnv(t *testing.T) {
	for _, cost := range []*sim.CostModel{
		sim.XeonGold6130(), sim.XeonGold6240(), sim.CoreI5_7600(), sim.XeonGold6130NVM(),
	} {
		m := MustNew(Config{Cost: cost})
		got := m.NewContext(m.NumCores() - 1).Q
		if want := mmu.NewEnv(cost).Q; got != want {
			t.Errorf("%s: context charges %+v, NewEnv %+v", cost.Name, got, want)
		}
		want := mmu.Charges{
			TLBHit:   sim.ToTicks(cost.TLBHitNs),
			CacheHit: sim.ToTicks(cost.CacheHitNs),
			Walk:     sim.ToTicks(cost.WalkNs()),
		}
		if got != want || got.Walk == 0 {
			t.Errorf("%s: context charges %+v, want %+v", cost.Name, got, want)
		}
	}
}

func TestMachineGeometry(t *testing.T) {
	m := testMachine(t)
	if m.NumCores() != 32 {
		t.Errorf("NumCores = %d, want 32", m.NumCores())
	}
	if m.Core(5).ID != 5 {
		t.Error("core IDs wrong")
	}
	if m.Core(0).TLB == m.Core(1).TLB {
		t.Error("cores share a TLB")
	}
	// Fig. 10b's second calibration machine: the 36-core Gold 6240.
	if m := MustNew(Config{Cost: sim.XeonGold6240()}); m.NumCores() != 36 {
		t.Errorf("XeonGold6240 machine: %d cores, want 36", m.NumCores())
	}
}

func TestAddressSpacesGetDistinctASIDs(t *testing.T) {
	m := testMachine(t)
	a, b := m.NewAddressSpace(), m.NewAddressSpace()
	if a.ASID == b.ASID {
		t.Errorf("duplicate ASIDs %d", a.ASID)
	}
}

func TestContextFork(t *testing.T) {
	m := testMachine(t)
	ctx := m.NewContext(30)
	ctx.Clock.Advance(100)
	w := ctx.Fork(3)
	if w.Core.ID != (30+3)%32 {
		t.Errorf("forked core = %d, want %d", w.Core.ID, (30+3)%32)
	}
	if w.Clock.Now() != 100 {
		t.Errorf("forked clock = %v, want 100", w.Clock.Now())
	}
	if w.Perf == ctx.Perf {
		t.Error("forked context shares counters")
	}
}

func TestNewContextOutOfRangePanics(t *testing.T) {
	m := testMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad core id")
		}
	}()
	m.NewContext(32)
}

func TestPinUnpinChargesCost(t *testing.T) {
	m := testMachine(t)
	ctx := m.NewContext(0)
	ctx.Pin()
	if !ctx.Pinned {
		t.Error("not pinned")
	}
	ctx.Unpin()
	if ctx.Pinned {
		t.Error("still pinned")
	}
	if ctx.Clock.Now() != 2*m.Cost.PinNs {
		t.Errorf("pin+unpin cost %v, want %v", ctx.Clock.Now(), 2*m.Cost.PinNs)
	}
}

func TestShootdownInvalidatesAllCores(t *testing.T) {
	m := testMachine(t)
	const asid, other = 7, 8
	for _, c := range []int{0, 13, 31} {
		m.Core(c).TLB.Insert(asid, 100, 5)
		m.Core(c).TLB.Insert(other, 200, 6)
	}
	ctx := m.NewContext(0)
	ctx.ShootdownAll(asid)
	for _, c := range []int{0, 13, 31} {
		if _, ok := m.Core(c).TLB.Lookup(asid, 100); ok {
			t.Errorf("core %d kept a stale entry", c)
		}
		if _, ok := m.Core(c).TLB.Lookup(other, 200); !ok {
			t.Errorf("core %d lost an unrelated ASID's entry", c)
		}
	}
	if ctx.Perf.IPIsSent != 31 || ctx.Perf.Shootdowns != 1 {
		t.Errorf("ipis=%d shootdowns=%d", ctx.Perf.IPIsSent, ctx.Perf.Shootdowns)
	}
	if m.Shootdowns() != 1 {
		t.Errorf("machine shootdowns = %d", m.Shootdowns())
	}
	want := m.Cost.TLBFlushLocalNs + m.Cost.ShootdownNs()
	if ctx.Clock.Now() != want {
		t.Errorf("shootdown cost %v, want %v", ctx.Clock.Now(), want)
	}
}

// A shootdown leaves a core with no entries of the flushed ASID, which
// lets later shootdowns skip it; refilling the core must bring it back
// into the next shootdown's reach, while other ASIDs survive both.
func TestShootdownReachesRefilledCore(t *testing.T) {
	m := testMachine(t)
	const asid, other = 7, 8
	ctx := m.NewContext(0)
	// Core 0 holds only asid, core 5 holds both ASIDs, core 9 only other.
	m.Core(0).TLB.Insert(asid, 100, 5)
	m.Core(5).TLB.Insert(asid, 100, 5)
	m.Core(5).TLB.Insert(other, 201, 6)
	m.Core(9).TLB.Insert(other, 202, 6)
	ctx.ShootdownAll(asid)
	for _, c := range []int{0, 5} {
		if _, ok := m.Core(c).TLB.Lookup(asid, 100); ok {
			t.Fatalf("first shootdown left a stale entry on core %d", c)
		}
	}
	m.Core(5).TLB.Insert(asid, 101, 5)
	m.Core(0).TLB.Insert(asid, 102, 5)
	ctx.ShootdownAll(asid)
	for _, c := range []int{0, 5} {
		for _, vpn := range []uint64{100, 101, 102} {
			if _, ok := m.Core(c).TLB.Lookup(asid, vpn); ok {
				t.Errorf("core %d kept entry %d after the second shootdown", c, vpn)
			}
		}
	}
	if _, ok := m.Core(5).TLB.Lookup(other, 201); !ok {
		t.Error("core 5 lost an unrelated ASID's entry")
	}
	if _, ok := m.Core(9).TLB.Lookup(other, 202); !ok {
		t.Error("core 9 lost an unrelated ASID's entry")
	}
	if ctx.Perf.IPIsSent != 62 || ctx.Perf.Shootdowns != 2 {
		t.Errorf("ipis=%d shootdowns=%d, want 62 and 2", ctx.Perf.IPIsSent, ctx.Perf.Shootdowns)
	}
}

func TestFlushLocalOnlyTouchesOwnCore(t *testing.T) {
	m := testMachine(t)
	const asid = 3
	m.Core(0).TLB.Insert(asid, 1, 2)
	m.Core(1).TLB.Insert(asid, 1, 2)
	ctx := m.NewContext(0)
	ctx.FlushLocal(asid)
	if _, ok := m.Core(0).TLB.Lookup(asid, 1); ok {
		t.Error("local TLB kept entry")
	}
	if _, ok := m.Core(1).TLB.Lookup(asid, 1); !ok {
		t.Error("remote TLB flushed by local flush")
	}
}

func TestFlushPageLocal(t *testing.T) {
	m := testMachine(t)
	ctx := m.NewContext(2)
	ctx.Core.TLB.Insert(9, 42, 1)
	ctx.Core.TLB.Insert(9, 43, 1)
	ctx.FlushPageLocal(9, 42)
	if _, ok := ctx.Core.TLB.Lookup(9, 42); ok {
		t.Error("page not flushed")
	}
	if _, ok := ctx.Core.TLB.Lookup(9, 43); !ok {
		t.Error("wrong page flushed")
	}
	if ctx.Perf.TLBFlushPage != 1 {
		t.Error("counter not bumped")
	}
}

func TestBusContention(t *testing.T) {
	cost := sim.XeonGold6130() // stream 12 GB/s, channels 2
	m := MustNew(Config{Cost: cost})
	bus := m.Bus()
	if got := bus.EffectiveGBs(); got != cost.StreamBWGBs {
		t.Errorf("idle bus bandwidth %v, want %v", got, cost.StreamBWGBs)
	}
	bus.SetStreams(cost.MemChannels)
	if got := bus.EffectiveGBs(); got != cost.StreamBWGBs {
		t.Errorf("at channel count: %v, want peak %v", got, cost.StreamBWGBs)
	}
	bus.SetStreams(8 * cost.MemChannels) // 8x oversubscribed -> sqrt(8)
	want := cost.StreamBWGBs / 2.8284271247461903
	if got := bus.EffectiveGBs(); got < want*0.999 || got > want*1.001 {
		t.Errorf("8x oversubscription: %v, want ~%v", got, want)
	}
	if got := bus.LatencyFactor(); got < 2.82 || got > 2.83 {
		t.Errorf("latency factor %v, want ~2.83", got)
	}
	bus.SetStreams(0)
	if got := bus.EffectiveGBs(); got != cost.StreamBWGBs {
		t.Errorf("0 streams: %v, want %v", got, cost.StreamBWGBs)
	}
	if got := bus.LatencyFactor(); got != 1 {
		t.Errorf("idle latency factor %v", got)
	}
}

func TestBusLatencyFactorCapped(t *testing.T) {
	m := MustNew(Config{Cost: sim.XeonGold6130()})
	bus := m.Bus()
	bus.SetStreams(1 << 20)
	if got := bus.LatencyFactor(); got != 8 {
		t.Errorf("latency factor not capped: %v", got)
	}
}

func TestBusJVMMultiplier(t *testing.T) {
	cost := sim.XeonGold6130()
	m := MustNew(Config{Cost: cost})
	bus := m.Bus()
	bus.SetStreams(1)
	one := bus.EffectiveGBs()
	bus.SetActiveJVMs(8)
	eight := bus.EffectiveGBs()
	if eight >= one {
		t.Errorf("8 JVMs did not reduce bandwidth: %v vs %v", eight, one)
	}
	bus.SetActiveJVMs(0) // clamps to 1
	if got := bus.ActiveJVMs(); got != 1 {
		t.Errorf("ActiveJVMs clamped to %d", got)
	}
}

func TestBusAddRemoveStreams(t *testing.T) {
	m := testMachine(t)
	bus := m.Bus()
	if n := bus.AddStreams(3); n != 3 {
		t.Errorf("AddStreams = %d", n)
	}
	if n := bus.AddStreams(-3); n != 0 {
		t.Errorf("AddStreams(-3) = %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative stream count did not panic")
		}
	}()
	bus.AddStreams(-1)
}

func TestMoreJVMsNeverIncreaseBandwidth(t *testing.T) {
	m := testMachine(t)
	bus := m.Bus()
	bus.SetStreams(4)
	prev := bus.EffectiveGBs()
	for jvms := 2; jvms <= 64; jvms *= 2 {
		bus.SetActiveJVMs(jvms)
		if got := bus.EffectiveGBs(); got > prev {
			t.Fatalf("bandwidth rose from %v to %v at %d JVMs", prev, got, jvms)
		} else {
			prev = got
		}
	}
}
