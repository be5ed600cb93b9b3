package machine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func numaMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(Config{Cost: sim.XeonGold6130(), Sockets: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pa returns the physical address of a frame's first byte.
func pa(f mem.FrameID) uint64 { return uint64(f) << mem.PageShift }

func TestFlatMachineHasNoNUMAView(t *testing.T) {
	m := testMachine(t)
	ctx := m.NewContext(0)
	if ctx.NUMAView != nil || ctx.Env.NUMA != nil {
		t.Error("flat machine installed a NUMA view")
	}
	if m.Nodes() != 1 {
		t.Errorf("flat machine has %d nodes", m.Nodes())
	}
	if m.Topology() == nil || !m.Topology().Flat() {
		t.Error("flat machine's topology is not flat")
	}
}

func TestPerNodeFrameAllocation(t *testing.T) {
	m := numaMachine(t)
	if m.Phys.Nodes() != 2 {
		t.Fatalf("Phys.Nodes = %d, want 2", m.Phys.Nodes())
	}
	for node := 0; node < 2; node++ {
		f, err := m.Phys.AllocFrameOn(node)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Phys.NodeOf(f); got != node {
			t.Errorf("frame allocated on node %d reports NodeOf = %d", node, got)
		}
	}
}

func TestNodeBusesAreIndependent(t *testing.T) {
	m := numaMachine(t)
	base := m.NodeBus(1).EffectiveGBs()
	prev := m.NodeBus(0).SetStreams(64)
	if got := m.NodeBus(1).EffectiveGBs(); got != base {
		t.Errorf("loading node 0 changed node 1's bandwidth: %v -> %v", base, got)
	}
	if m.NodeBus(0).EffectiveGBs() >= base {
		t.Error("64 streams did not degrade node 0's bandwidth")
	}
	// Contexts bind to their own socket's bus: with node 0 loaded, a
	// socket-0 context sees degraded bandwidth while socket 1 does not.
	half := m.NumCores() / 2
	c0, c1 := m.NewContext(0), m.NewContext(half)
	if c0.Socket() != 0 || c1.Socket() != 1 {
		t.Errorf("sockets = %d, %d, want 0, 1", c0.Socket(), c1.Socket())
	}
	if got := c1.Env.BW(); got != base {
		t.Errorf("socket-1 context sees %v GB/s, want unloaded %v", got, base)
	}
	if c0.Env.BW() >= c1.Env.BW() {
		t.Error("socket-0 context did not see its own bus's load")
	}
	m.NodeBus(0).SetStreams(prev)
}

func TestNUMAViewCountsLocalAndRemote(t *testing.T) {
	m := numaMachine(t)
	local, err := m.Phys.AllocFrameOn(0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := m.Phys.AllocFrameOn(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := m.NewContext(0) // socket 0
	v := ctx.NUMAView
	if v == nil {
		t.Fatal("2-socket context has no NUMA view")
	}

	localLat := v.LatencyAt(pa(local))
	remoteLat := v.LatencyAt(pa(remote))
	if remoteLat <= localLat {
		t.Errorf("remote latency %v not above local %v", remoteLat, localLat)
	}
	localBW := v.BWAt(pa(local), 4096)
	remoteBW := v.BWAt(pa(remote), 4096)
	if remoteBW > localBW {
		t.Errorf("remote bandwidth %v above local %v", remoteBW, localBW)
	}
	if v.RemoteWalkNs(pa(local)) != 0 {
		t.Error("local walk charged a remote surcharge")
	}
	if v.RemoteWalkNs(pa(remote)) == 0 {
		t.Error("remote walk charged no surcharge")
	}
	if v.CrossNodeSwapNs(pa(local), pa(local)) != 0 {
		t.Error("same-node swap charged a crossing")
	}
	if swap := v.CrossNodeSwapNs(pa(local), pa(remote)); swap == 0 {
		t.Error("cross-node swap charged no crossing")
	} else if store := v.CrossNodeStoreNs(pa(local), pa(remote)); store*2 != swap {
		t.Errorf("one-sided store %v is not half the pairwise swap %v", store, swap)
	}

	if ctx.Perf.NUMALocal != 3 { // LatencyAt + BWAt + RemoteWalkNs on the local frame
		t.Errorf("NUMALocal = %d, want 3", ctx.Perf.NUMALocal)
	}
	if ctx.Perf.NUMARemote != 3 { // LatencyAt + BWAt + RemoteWalkNs on the remote frame
		t.Errorf("NUMARemote = %d, want 3", ctx.Perf.NUMARemote)
	}
	if ctx.Perf.NUMARemoteBytes != 4096 {
		t.Errorf("NUMARemoteBytes = %d, want 4096", ctx.Perf.NUMARemoteBytes)
	}
	if ctx.Perf.CrossNodeSwaps != 2 { // the swap and the store
		t.Errorf("CrossNodeSwaps = %d, want 2", ctx.Perf.CrossNodeSwaps)
	}
}

// TestInterconnectBrownoutShape pins the brownout charge: at
// interconnect rate 1 a local access costs what it does on a healthy
// machine, and a remote access pays exactly fault.BrownoutFactor times
// the healthy cross-socket surcharge.
func TestInterconnectBrownoutShape(t *testing.T) {
	var plan fault.Plan
	plan.Rate[trace.FaultInterconnect] = 1
	browned, err := New(Config{Cost: sim.XeonGold6130(), Sockets: 2, Fault: fault.New(7, plan)})
	if err != nil {
		t.Fatal(err)
	}
	lat := func(m *Machine) (local, remote float64) {
		t.Helper()
		l, err := m.Phys.AllocFrameOn(0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Phys.AllocFrameOn(1)
		if err != nil {
			t.Fatal(err)
		}
		v := m.NewContext(0).NUMAView
		return v.LatencyAt(pa(l)), v.LatencyAt(pa(r))
	}
	local, remote := lat(numaMachine(t))
	bLocal, bRemote := lat(browned)
	if bLocal != local {
		t.Errorf("browned-out local latency %v, want healthy %v", bLocal, local)
	}
	if got, want := bRemote-bLocal, fault.BrownoutFactor*(remote-local); got != want {
		t.Errorf("browned-out remote surcharge %v, want %v × healthy %v",
			got, fault.BrownoutFactor, remote-local)
	}
}

func TestShootdownCountsRemoteIPIs(t *testing.T) {
	m := numaMachine(t)
	as := m.NewAddressSpace()
	ctx := m.NewContext(0)
	flatM := testMachine(t)
	flatCtx := flatM.NewContext(0)
	flatCtx.ShootdownAll(as.ASID)
	ctx.ShootdownAll(as.ASID)
	if ctx.Perf.IPIsSent != uint64(m.NumCores()-1) {
		t.Errorf("IPIsSent = %d, want %d", ctx.Perf.IPIsSent, m.NumCores()-1)
	}
	if want := uint64(m.NumCores() / 2); ctx.Perf.IPIsRemote != want {
		t.Errorf("IPIsRemote = %d, want %d (one full remote socket)", ctx.Perf.IPIsRemote, want)
	}
	if flatCtx.Perf.IPIsRemote != 0 {
		t.Errorf("flat machine counted %d remote IPIs", flatCtx.Perf.IPIsRemote)
	}
	if ctx.Clock.Now() <= flatCtx.Clock.Now() {
		t.Errorf("2-socket shootdown %v not costlier than flat %v", ctx.Clock.Now(), flatCtx.Clock.Now())
	}
}

func TestInterleavePlacementAlternatesNodes(t *testing.T) {
	m, err := New(Config{Cost: sim.XeonGold6130(), Sockets: 2,
		NUMAPolicy: topology.PolicyInterleave})
	if err != nil {
		t.Fatal(err)
	}
	as := m.NewAddressSpace()
	va, err := as.MapRegion(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		f, ok := as.Lookup(va + uint64(i)<<mem.PageShift)
		if !ok {
			t.Fatalf("page %d unmapped", i)
		}
		if got := m.Phys.NodeOf(f); got != i%2 {
			t.Errorf("interleaved page %d on node %d, want %d", i, got, i%2)
		}
	}
}
