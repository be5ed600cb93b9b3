package machine

import (
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NUMAView is the placement-aware cost resolver a multi-socket machine
// installs on each context's Env (as mmu.NUMA). Every charged access is
// routed by the physical frame's node: socket-local traffic sees the node
// bus exactly as the flat machine saw the global bus, while traffic to
// another node additionally crosses the interconnect, paying the link's
// latency surcharge or streaming through whichever of the link and the
// destination bus is narrower. As a side effect the view counts
// local/remote accesses into the context's perf counters and trace
// metrics, which is where the NUMA figures and Prometheus series come
// from.
//
// Like sim.Perf and trace.Buffer, a NUMAView is owned by one simulated
// thread.
type NUMAView struct {
	m      *Machine
	socket int
	perf   *sim.Perf
	buf    *trace.Buffer
	inj    *fault.Injector
}

// brownoutFactor rolls the interconnect-brownout site for one remote
// access: 1 for a healthy crossing, fault.BrownoutFactor for a
// browned-out one. This runs on the per-word charge path, so like
// ObserveNUMA it only bumps fixed-size counters — no events.
func (v *NUMAView) brownoutFactor() float64 {
	if !v.inj.Enabled(trace.FaultInterconnect) || !v.inj.Fire(trace.FaultInterconnect) {
		return 1
	}
	v.perf.FaultsInjected++
	v.buf.ObserveFault(trace.FaultInterconnect)
	return fault.BrownoutFactor
}

// nodeOf resolves a physical address to the NUMA node of its frame.
func (v *NUMAView) nodeOf(pa uint64) int {
	return v.m.Phys.NodeOf(mem.FrameID(pa >> mem.PageShift))
}

// LatencyAt implements mmu.NUMA: the contended cost of one latency-bound
// DRAM access to pa. Local accesses match the flat model (DRAM latency
// scaled by the node bus's contention factor); remote accesses add the
// interconnect hop scaled by the link's own contention.
func (v *NUMAView) LatencyAt(pa uint64) float64 {
	node := v.nodeOf(pa)
	lat := float64(float64(v.m.Cost.DRAMAccessNs) * v.m.buses[node].LatencyFactor())
	if node == v.socket {
		v.perf.NUMALocal++
		v.buf.ObserveNUMA(false, 0)
		return lat
	}
	topo := v.m.topo
	lat += float64(float64(topo.RemoteLatNs()) * topo.LinkLatencyFactor(v.m.TotalStreams()) *
		v.brownoutFactor())
	v.perf.NUMARemote++
	v.buf.ObserveNUMA(true, 0)
	return lat
}

// LocalAt implements mmu.NUMA: whether pa's frame lives on this view's
// own socket. Pure routing — no counters, no trace events — so batched
// settlement can probe a page segment before deciding how to charge it.
func (v *NUMAView) LocalAt(pa uint64) bool {
	return v.nodeOf(pa) == v.socket
}

// LatencyAtN implements mmu.NUMA: it accounts n node-local latency-bound
// accesses to pa's page exactly as n LatencyAt calls would — local
// counter, trace observations and all — and returns their shared
// per-access latency. Batched settlement only calls it for pages LocalAt
// approved, where the contention factor is constant across the segment.
func (v *NUMAView) LatencyAtN(pa uint64, n int) float64 {
	node := v.nodeOf(pa)
	v.perf.NUMALocal += uint64(n)
	if v.buf != nil {
		for i := 0; i < n; i++ {
			v.buf.ObserveNUMA(false, 0)
		}
	}
	return float64(v.m.Cost.DRAMAccessNs) * v.m.buses[node].LatencyFactor()
}

// BWAt implements mmu.NUMA: the effective streaming bandwidth for an
// n-byte sequential transfer touching pa. Local streams run at the node
// bus's contended rate; remote streams are throttled by the slower of the
// destination bus and the contended interconnect link.
func (v *NUMAView) BWAt(pa uint64, n int) float64 {
	node := v.nodeOf(pa)
	bw := v.m.buses[node].EffectiveGBs()
	if node == v.socket {
		v.perf.NUMALocal++
		v.buf.ObserveNUMA(false, 0)
		return bw
	}
	if link := v.m.topo.LinkGBs(v.m.TotalStreams()) / v.brownoutFactor(); link < bw {
		bw = link
	}
	v.perf.NUMARemote++
	if n < 0 {
		n = 0
	}
	v.perf.NUMARemoteBytes += uint64(n)
	v.buf.ObserveNUMA(true, n)
	return bw
}

// RemoteWalkNs returns the surcharge a full page-table walk pays when the
// walked PTE's frame lives on another node: each of the walk's levels is a
// dependent remote access, but only the surcharge beyond the already
// charged local walk is returned. Zero for local frames; a remote frame
// counts as one remote access.
func (v *NUMAView) RemoteWalkNs(pa uint64) sim.Time {
	if v.nodeOf(pa) == v.socket {
		return 0
	}
	v.perf.NUMARemote++
	v.buf.ObserveNUMA(true, 0)
	return v.crossingNs()
}

// CrossNodeSwapNs returns the extra cost of exchanging two PTEs whose
// frames sit on different nodes: the kernel's two dirty PTE stores each
// cross the interconnect. Zero when both frames share a node (including
// when both are remote to the caller — the PTE walk surcharge covers
// that). Counts Perf.CrossNodeSwaps when non-zero.
func (v *NUMAView) CrossNodeSwapNs(pa1, pa2 uint64) sim.Time {
	if v.nodeOf(pa1) == v.nodeOf(pa2) {
		return 0
	}
	v.perf.CrossNodeSwaps++
	return 2 * v.crossingNs()
}

// CrossNodeStoreNs is the one-sided variant of CrossNodeSwapNs for the
// overlap algorithm's cycle chasing, where each slot update stores a
// single PTE: one interconnect crossing when the incoming and outgoing
// frames sit on different nodes. Each crossing store counts as a
// cross-node PTE move in Perf.CrossNodeSwaps.
func (v *NUMAView) CrossNodeStoreNs(paIn, paOut uint64) sim.Time {
	if v.nodeOf(paIn) == v.nodeOf(paOut) {
		return 0
	}
	v.perf.CrossNodeSwaps++
	return v.crossingNs()
}

// crossingNs is the contended cost of one interconnect crossing,
// including this access's brownout roll.
func (v *NUMAView) crossingNs() sim.Time {
	return sim.Time(float64(v.m.topo.CrossingNs(v.m.TotalStreams())) *
		v.brownoutFactor())
}
