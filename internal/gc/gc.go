// Package gc defines what all collectors in this repository share: the
// Collector interface, root sets, pause/phase statistics, and the virtual
// worker pool that models parallel GC phases deterministically (work is
// attributed to per-worker simulated clocks; a phase's duration is the
// makespan over its workers).
package gc

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Cause explains why a collection ran.
type Cause int

const (
	// CauseAllocFailure is the normal trigger: an allocation did not fit.
	CauseAllocFailure Cause = iota
	// CauseExplicit is a System.gc()-style request (benchmarks use it).
	CauseExplicit
	// CauseMemoryPressure is an emergency collection triggered by the
	// physical allocator dropping below its low watermark.
	CauseMemoryPressure
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseAllocFailure:
		return "allocation failure"
	case CauseExplicit:
		return "explicit"
	case CauseMemoryPressure:
		return "memory pressure"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Collector is a garbage collector bound to a heap and a root set.
type Collector interface {
	// Name identifies the algorithm ("svagc", "parallelgc", ...).
	Name() string
	// Collect runs a stop-the-world collection attributed to ctx's clock
	// and returns the pause record. It is invoked at a safepoint: all
	// mutator TLABs are retired by the collector before walking.
	Collect(ctx *machine.Context, cause Cause) (*PauseInfo, error)
	// Stats exposes the accumulated pause history.
	Stats() *Stats
}

// Root is a GC root slot (a stack or global reference). The collector
// rewrites Obj when the referent moves.
type Root struct {
	Obj heap.Object
	idx int
}

// RootSet is the set of live roots for one runtime instance.
type RootSet struct {
	roots []*Root
}

// Add registers a new root holding o and returns its handle.
func (rs *RootSet) Add(o heap.Object) *Root {
	r := &Root{Obj: o, idx: len(rs.roots)}
	rs.roots = append(rs.roots, r)
	return r
}

// Remove drops a root. Removing an already removed root is a no-op.
func (rs *RootSet) Remove(r *Root) {
	if r.idx < 0 || r.idx >= len(rs.roots) || rs.roots[r.idx] != r {
		return
	}
	last := len(rs.roots) - 1
	rs.roots[r.idx] = rs.roots[last]
	rs.roots[r.idx].idx = r.idx
	rs.roots = rs.roots[:last]
	r.idx = -1
}

// Snapshot returns the current roots (a copy of the slice; the *Root
// handles are shared so the collector can rewrite them).
func (rs *RootSet) Snapshot() []*Root {
	return append([]*Root(nil), rs.roots...)
}

// Len returns the root count.
func (rs *RootSet) Len() int {
	return len(rs.roots)
}

// Placement selects which cores a pool's workers fork onto.
type Placement int

const (
	// PlaceSpread distributes workers over successive cores machine-wide —
	// the historical behaviour, and the only sensible one on one socket.
	PlaceSpread Placement = iota
	// PlaceLocal packs workers onto the base context's socket, wrapping
	// round-robin within it — GC threads stay close to the heap node they
	// compact, at the price of sharing that socket's cores.
	PlaceLocal
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceSpread:
		return "spread"
	case PlaceLocal:
		return "local"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement parses a -numa-gc flag value.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "", "spread":
		return PlaceSpread, nil
	case "local":
		return PlaceLocal, nil
	}
	return 0, fmt.Errorf("gc: unknown worker placement %q (want spread or local)", s)
}

// Pool is a set of virtual GC workers. Work items executed through the
// pool are attributed to per-worker clocks; phases run deterministically
// in one goroutine while still modelling parallel makespan.
type Pool struct {
	Workers []*machine.Context
	rr      int
}

// NewPool forks n worker contexts from base (one per successive core),
// synchronised to base's current instant.
func NewPool(base *machine.Context, n int) *Pool {
	return NewPoolPlaced(base, n, PlaceSpread)
}

// NewPoolPlaced is NewPool with an explicit worker placement.
func NewPoolPlaced(base *machine.Context, n int, place Placement) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{Workers: make([]*machine.Context, n)}
	topo := base.M.Topology()
	for i := range p.Workers {
		switch place {
		case PlaceLocal:
			socket := base.Socket()
			core := topo.FirstCore(socket) +
				(base.Core.ID-topo.FirstCore(socket)+i)%topo.CoresPerSocket()
			p.Workers[i] = base.ForkOn(core)
		default:
			p.Workers[i] = base.Fork(i)
		}
	}
	return p
}

// SetNodeStreams registers one active memory stream per worker on each
// worker's node bus (the NUMA-aware successor of Bus().SetStreams(n)) and
// returns a restore function that unregisters them. On a flat machine the
// effect on the single bus is identical to the historical SetStreams call.
func (p *Pool) SetNodeStreams() (restore func()) {
	m := p.Workers[0].M
	perNode := make([]int, m.Nodes())
	for _, w := range p.Workers {
		perNode[w.Core.Socket]++
	}
	old := make([]int, len(perNode))
	for node, n := range perNode {
		old[node] = m.NodeBus(node).SetStreams(n)
	}
	return func() {
		for node := range perNode {
			m.NodeBus(node).SetStreams(old[node])
		}
	}
}

// Next returns the next worker round-robin — the attribution pattern that
// models ideal work stealing (perfect balance).
func (p *Pool) Next() *machine.Context {
	w := p.Workers[p.rr]
	p.rr = (p.rr + 1) % len(p.Workers)
	return w
}

// Worker returns worker i, for static (non-stealing) attribution.
func (p *Pool) Worker(i int) *machine.Context { return p.Workers[i%len(p.Workers)] }

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.Workers) }

// MaxNow returns the latest instant across workers — the phase makespan
// frontier.
func (p *Pool) MaxNow() sim.Time {
	max := p.Workers[0].Clock.Now()
	for _, w := range p.Workers[1:] {
		if t := w.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// BarrierSync models a phase barrier: every worker waits for the slowest,
// plus the given synchronisation cost. It returns the post-barrier instant.
func (p *Pool) BarrierSync(cost sim.Time) sim.Time {
	t := p.MaxNow() + cost
	for _, w := range p.Workers {
		w.Clock.AdvanceTo(t)
	}
	return t
}

// CollectPerf moves every worker's counters into dst — used both for pause
// records and to roll GC activity into the runtime-wide perf counters.
// The workers' counters are zeroed, so each count lives in one context's
// Perf and a sum over every context (the trace snapshot's) counts it once.
func (p *Pool) CollectPerf(dst *sim.Perf) {
	for _, w := range p.Workers {
		dst.Add(w.Perf)
		w.Perf.Reset()
	}
}
