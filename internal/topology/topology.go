// Package topology models the socket layout of the simulated machine: N
// sockets, each with its own cores, DRAM node and memory bus, joined by
// UPI-style interconnect links. The paper's evaluation machines are
// dual-socket Xeon Golds, and its headline results — TLB-shootdown/IPI
// scaling, the SwapVA-vs-memcpy crossover, multi-JVM bus interference —
// are shaped by that topology; a flat machine (one socket) reproduces the
// original uniform model bit-for-bit.
//
// The package is pure: it owns the core→socket mapping, the interconnect
// cost formulas, and the page-placement policies, but no mutable machine
// state. The machine layer instantiates one memory bus per node and routes
// cross-socket transfers through the link costs defined here.
package topology

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Policy selects the NUMA node for freshly mapped pages, mirroring the
// Linux mempolicy modes the paper's testbeds would run under.
type Policy int

const (
	// PolicyFirstTouch places each page on the mapping context's node —
	// the kernel default, and the identity policy on a flat machine.
	PolicyFirstTouch Policy = iota
	// PolicyInterleave round-robins successive pages across all nodes,
	// trading locality for balanced channel load (numactl --interleave).
	PolicyInterleave
	// PolicyBind places every page on one explicit node (numactl
	// --membind), the worst case for threads running on the other socket.
	PolicyBind
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyFirstTouch:
		return "first-touch"
	case PolicyInterleave:
		return "interleave"
	case PolicyBind:
		return "bind"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a -numa-policy flag value: "first-touch",
// "interleave", or "bind:N" (bind to node N; bare "bind" means node 0).
// It returns the policy and the bind target node.
func ParsePolicy(s string) (Policy, int, error) {
	switch {
	case s == "" || s == "first-touch" || s == "firsttouch" || s == "local":
		return PolicyFirstTouch, 0, nil
	case s == "interleave":
		return PolicyInterleave, 0, nil
	case s == "bind":
		return PolicyBind, 0, nil
	case strings.HasPrefix(s, "bind:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "bind:"))
		if err != nil || n < 0 {
			return 0, 0, fmt.Errorf("topology: bad bind node in %q", s)
		}
		return PolicyBind, n, nil
	}
	return 0, 0, fmt.Errorf("topology: unknown NUMA policy %q (want first-touch, interleave, or bind[:N])", s)
}

// Config describes the topology to build.
type Config struct {
	// Sockets is the socket (= NUMA node) count; <= 0 means 1 (flat).
	Sockets int
	// Cost supplies the core count and the interconnect parameters. The
	// interconnect fields may be zero, in which case defaults are derived
	// from the flat-machine figures (see New).
	Cost *sim.CostModel
}

// Topology is an immutable socket layout. Cores are block-distributed:
// cores [0, c) belong to socket 0, [c, 2c) to socket 1, and so on — the
// numbering Linux exposes on the paper's Xeon Gold testbeds.
type Topology struct {
	sockets        int
	coresPerSocket int

	// Interconnect parameters, resolved from the cost model with
	// fallbacks so any flat model can be split into sockets:
	linkGBs     float64  // per-direction link bandwidth (InterconnectGBs, else StreamBWGBs)
	remoteLatNs sim.Time // extra ns per remote DRAM access (InterconnectLatNs, else DRAMAccessNs)
	linkStreams int      // streams before link contention (InterconnectStreams, else MemChannels)
	remoteIPINs sim.Time // per-target IPI cost across sockets (IPIPerCoreRemoteNs, else 2x IPIPerCoreNs)
}

// maxLinkLatencyFactor caps queueing inflation on the interconnect,
// matching the node buses' cap.
const maxLinkLatencyFactor = 8.0

// New builds and validates a topology over cfg.Cost's cores.
func New(cfg Config) (*Topology, error) {
	cost := cfg.Cost
	if cost == nil {
		return nil, fmt.Errorf("topology: Config.Cost is required")
	}
	sockets := cfg.Sockets
	if sockets <= 0 {
		sockets = 1
	}
	if cost.Cores%sockets != 0 {
		return nil, fmt.Errorf("topology: %d cores do not divide evenly over %d sockets", cost.Cores, sockets)
	}
	t := &Topology{
		sockets:        sockets,
		coresPerSocket: cost.Cores / sockets,
		linkGBs:        cost.InterconnectGBs,
		remoteLatNs:    cost.InterconnectLatNs,
		linkStreams:    cost.InterconnectStreams,
		remoteIPINs:    cost.IPIPerCoreRemoteNs,
	}
	if t.linkGBs <= 0 {
		t.linkGBs = cost.StreamBWGBs
	}
	if t.remoteLatNs <= 0 {
		t.remoteLatNs = cost.DRAMAccessNs
	}
	if t.linkStreams <= 0 {
		t.linkStreams = cost.MemChannels
	}
	if t.remoteIPINs <= 0 {
		t.remoteIPINs = 2 * cost.IPIPerCoreNs
	}
	return t, nil
}

// Flat reports whether the machine has a single socket — the configuration
// that reproduces the original uniform model exactly.
func (t *Topology) Flat() bool { return t.sockets == 1 }

// Sockets returns the socket (NUMA node) count.
func (t *Topology) Sockets() int { return t.sockets }

// CoresPerSocket returns the per-socket core count.
func (t *Topology) CoresPerSocket() int { return t.coresPerSocket }

// SocketOf returns the socket owning the given core.
func (t *Topology) SocketOf(core int) int { return core / t.coresPerSocket }

// FirstCore returns the lowest core ID on a socket.
func (t *Topology) FirstCore(socket int) int { return socket * t.coresPerSocket }

// Fanout splits a shootdown broadcast from a core on fromSocket into
// same-socket and cross-socket target counts (the initiator excluded).
func (t *Topology) Fanout(fromSocket int) (intra, inter int) {
	return t.coresPerSocket - 1, (t.sockets - 1) * t.coresPerSocket
}

// ShootdownNs returns the initiator's cost of an IPI broadcast from
// fromSocket: initiation plus per-target acknowledgement, with
// cross-socket targets paying the remote per-core cost. On one socket it
// equals CostModel.ShootdownNs exactly.
func (t *Topology) ShootdownNs(cost *sim.CostModel, fromSocket int) sim.Time {
	intra, inter := t.Fanout(fromSocket)
	if intra+inter <= 0 {
		return 0
	}
	return cost.IPIBaseNs + sim.Time(sim.Time(intra)*cost.IPIPerCoreNs) +
		sim.Time(sim.Time(inter)*t.remoteIPINs)
}

// RemoteLatNs returns the extra latency of one remote DRAM access before
// link contention scaling.
func (t *Topology) RemoteLatNs() sim.Time { return t.remoteLatNs }

// RemoteIPINs returns the per-target cost of a cross-socket IPI.
func (t *Topology) RemoteIPINs() sim.Time { return t.remoteIPINs }

// linkOversubscription returns active streams / link capacity, at least 1.
func (t *Topology) linkOversubscription(activeStreams int) float64 {
	if activeStreams < 1 {
		activeStreams = 1
	}
	ratio := float64(activeStreams) / float64(t.linkStreams)
	if ratio < 1 {
		return 1
	}
	return ratio
}

// LinkGBs returns the bandwidth one stream gets across the interconnect
// when activeStreams streams are memory-active machine-wide. Like the node
// buses, contention degrades with the square root of oversubscription; the
// machine-wide count is a deliberate pessimisation (any active stream may
// be hitting the link).
func (t *Topology) LinkGBs(activeStreams int) float64 {
	return t.linkGBs / math.Sqrt(t.linkOversubscription(activeStreams))
}

// LinkLatencyFactor returns the multiplier applied to the remote-access
// latency surcharge under the current machine-wide load, capped like the
// node buses.
func (t *Topology) LinkLatencyFactor(activeStreams int) float64 {
	f := math.Sqrt(t.linkOversubscription(activeStreams))
	if f > maxLinkLatencyFactor {
		return maxLinkLatencyFactor
	}
	return f
}

// CrossingNs returns the contended cost of one interconnect crossing
// under the current machine-wide load: the remote-latency surcharge
// scaled by the link's latency factor. This is the closed-form cost the
// machine layer multiplies by its fault-injection brownout factor.
func (t *Topology) CrossingNs(activeStreams int) sim.Time {
	return sim.Time(float64(t.remoteLatNs) * t.LinkLatencyFactor(activeStreams))
}

// String summarises the layout ("2 sockets x 16 cores").
func (t *Topology) String() string {
	return fmt.Sprintf("%d socket(s) x %d cores", t.sockets, t.coresPerSocket)
}
