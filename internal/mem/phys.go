// Package mem implements the simulated physical memory: a pool of 4 KiB
// frames with an allocator. Frames hold real bytes — every simulated-heap
// object's contents live here — so remapping experiments (SvapVA) can be
// verified for correctness by reading the bytes back through the MMU.
//
// A frame that holds only zeros shares one never-written host page, the
// way Linux maps untouched anonymous memory to its zero page: it is
// "unbacked" and costs the host no page of its own. Frame, the writable
// accessor, backs a frame before handing it out; View reads without
// backing; Write and Clear store bytes by the zero-write rule: zeros back
// nothing, and a whole page of them gives the frame's host page back.
package mem

import (
	"bytes"
	"errors"
	"fmt"
)

const (
	// PageShift is log2 of the page/frame size, matching x86-64 4 KiB pages.
	PageShift = 12
	// PageSize is the frame size in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the in-page offset bits of an address.
	PageMask = PageSize - 1
)

// FrameID identifies one physical frame. The zero value is reserved as
// "no frame" so page-table entries can use 0 for not-present.
type FrameID uint32

// NilFrame is the reserved invalid frame.
const NilFrame FrameID = 0

// ErrNoMemory is the sentinel under every allocation failure: physical
// memory is exhausted (or, see ErrWatermark, held back). Callers match it
// with errors.Is through any wrapping.
var ErrNoMemory = errors.New("out of physical memory")

// ErrWatermark wraps ErrNoMemory for allocations refused not because the
// pool is empty but because granting them would dig into the min-watermark
// emergency pool (reserved for GC-critical draws). errors.Is(err,
// ErrNoMemory) and errors.Is(err, ErrWatermark) both hold for these
// failures, so callers can distinguish backpressure from hard exhaustion.
var ErrWatermark = fmt.Errorf("allocation held at min watermark: %w", ErrNoMemory)

// Watermarks are Linux-style allocator thresholds in frames, disabled when
// zero. With watermarks armed (SetWatermarks), ordinary allocations fail
// with ErrWatermark rather than let the free pool drop below Min — the
// emergency pool only reservation holders (PhysMem.Reserve) may consume —
// while Low and High drive caller backpressure: below Low the runtime
// stalls allocators and triggers emergency collection, and recovery above
// High re-arms that trigger (hysteresis).
type Watermarks struct {
	Min, Low, High int
}

// Enabled reports whether any threshold is set.
func (w Watermarks) Enabled() bool { return w.Min > 0 || w.Low > 0 || w.High > 0 }

func (w Watermarks) validate(limit int) error {
	if !w.Enabled() {
		return nil
	}
	if limit <= 0 {
		return fmt.Errorf("mem: watermarks need a bounded pool (limit 0)")
	}
	if w.Min < 0 || w.Min > w.Low || w.Low > w.High {
		return fmt.Errorf("mem: watermarks must satisfy 0 <= min <= low <= high (got %+v)", w)
	}
	if w.High >= limit {
		return fmt.Errorf("mem: high watermark %d must lie below the %d-frame limit", w.High, limit)
	}
	return nil
}

// DefaultWatermarks scales Linux's min/low/high ratios to a pool of the
// given frame count: min is 1/64th of the pool (at least 4 frames), low
// and high sit 25%% and 50%% above it.
func DefaultWatermarks(limitFrames int) Watermarks {
	min := limitFrames / 64
	if min < 4 {
		min = 4
	}
	return Watermarks{Min: min, Low: min + min/4 + 1, High: min + min/2 + 2}
}

// Pressure is the allocator's backpressure level, derived from the armed
// watermarks and the mutator-available frame count (free minus outstanding
// reservations).
type Pressure int

const (
	// PressureNone: free frames sit above the low watermark (or watermarks
	// are disabled).
	PressureNone Pressure = iota
	// PressureLow: available frames at or below Low — allocators should
	// stall and trigger emergency collection.
	PressureLow
	// PressureMin: available frames at or below Min — ordinary allocations
	// fail fast; only reservation holders may allocate.
	PressureMin
)

// String implements fmt.Stringer.
func (p Pressure) String() string {
	switch p {
	case PressureNone:
		return "none"
	case PressureLow:
		return "low"
	case PressureMin:
		return "min"
	default:
		return fmt.Sprintf("Pressure(%d)", int(p))
	}
}

// PhysMem is the simulated physical memory of one machine, driven by the
// machine's one host goroutine.
//
// The pool is optionally partitioned into NUMA nodes: each frame is tagged
// with the node it was placed on at allocation time, freed frames return
// to their node's free list, and AllocFrameOn prefers its node before
// falling back to the others. A PhysMem built without SetNodes behaves as
// one flat node.
//
// Watermarks (SetWatermarks) and the reservation API (Reserve /
// AllocFrameReserved / FreeFrameToReserve / ReleaseReserve) add the
// memory-pressure plane: ordinary allocations refuse to dig below the min
// watermark, while a reservation sets frames aside — allowed to consume
// the emergency pool — so GC-critical allocations cannot fail
// mid-compaction. Both are pure accounting: no simulated time is charged
// here, and with watermarks disabled (the default) behaviour is
// bit-identical to the unwatermarked allocator.
type PhysMem struct {
	table   []*[PageSize]byte // &zeroFrame when unbacked; index 0 (NilFrame) always is
	spare   []*[PageSize]byte // host pages given back by unbacked frames
	nodeTab []uint8           // node tag per frame, parallel to table
	free    [][]FrameID       // per-node free lists
	nodes   int
	limit   int // maximum number of frames, 0 = unlimited
	inUse   int

	wm       Watermarks
	wmOn     bool // mirrors wm.Enabled() for the allocation fast path
	reserved int  // frames promised to reservation holders, not yet drawn
}

// zeroFrame is the one host page every unbacked frame points at. Nothing
// writes it: writers go through Frame, which backs the frame first.
var zeroFrame [PageSize]byte

// NewPhysMem creates a physical memory able to hold up to totalBytes of
// frame storage (rounded down to whole frames). totalBytes <= 0 means
// unlimited. Frames are created unbacked, and a frame's host page is
// allocated on its first write through Frame.
func NewPhysMem(totalBytes int64) *PhysMem {
	limit := 0
	if totalBytes > 0 {
		limit = int(totalBytes >> PageShift)
	}
	return &PhysMem{
		table:   append(make([]*[PageSize]byte, 0, 1024), &zeroFrame), // slot 0 = NilFrame
		nodeTab: make([]uint8, 1, 1024),
		free:    make([][]FrameID, 1),
		nodes:   1,
		limit:   limit,
	}
}

// SetNodes partitions the pool into n NUMA nodes. Call it before any
// allocation (the machine layer does, right after construction); frames
// already handed out keep their node-0 tag.
func (pm *PhysMem) SetNodes(n int) {
	if n < 1 {
		n = 1
	}
	pm.nodes = n
	for len(pm.free) < n {
		pm.free = append(pm.free, nil)
	}
}

// Nodes returns the NUMA node count.
func (pm *PhysMem) Nodes() int {
	return pm.nodes
}

// NodeOf returns the NUMA node a frame was placed on.
func (pm *PhysMem) NodeOf(id FrameID) int {
	if int(id) >= len(pm.nodeTab) {
		return 0
	}
	return int(pm.nodeTab[id])
}

// SetWatermarks arms (or, with a zero value, disarms) the min/low/high
// thresholds. Watermarks require a bounded pool. Call it before the
// pressure-sensitive workload starts.
func (pm *PhysMem) SetWatermarks(w Watermarks) error {
	if err := w.validate(pm.limit); err != nil {
		return err
	}
	pm.wm = w
	pm.wmOn = w.Enabled()
	return nil
}

// Watermarks returns the armed thresholds (zero value when disabled).
func (pm *PhysMem) Watermarks() Watermarks {
	return pm.wm
}

// FreeFrames returns the frames still grantable to ordinary allocations:
// limit minus live frames minus outstanding reservations. It returns -1
// for an unbounded pool.
func (pm *PhysMem) FreeFrames() int {
	if pm.limit <= 0 {
		return -1
	}
	return pm.limit - pm.inUse - pm.reserved
}

// PressureLevel reports the current backpressure level. The disabled path
// (no watermarks armed — the default) is a single load, so per-allocation
// polling by the runtime costs nothing on zero-pressure machines.
func (pm *PhysMem) PressureLevel() Pressure {
	if !pm.wmOn {
		return PressureNone
	}
	avail := pm.FreeFrames()
	switch {
	case avail <= pm.wm.Min:
		return PressureMin
	case avail <= pm.wm.Low:
		return PressureLow
	default:
		return PressureNone
	}
}

// Reserve sets n frames aside for the caller. Reserved frames are
// invisible to ordinary allocations (they tighten the watermark gate) and
// may be drawn via AllocFrameReserved even below the min watermark — the
// emergency pool exists exactly for them. Reserve fails only when the pool
// cannot cover the reservation at all; on an unbounded pool it always
// succeeds. Callers must eventually ReleaseReserve what they did not draw.
func (pm *PhysMem) Reserve(n int) error {
	if n <= 0 {
		return nil
	}
	if pm.limit > 0 && pm.inUse+pm.reserved+n > pm.limit {
		return fmt.Errorf("mem: cannot reserve %d frames (%d in use, %d already reserved, limit %d): %w",
			n, pm.inUse, pm.reserved, pm.limit, ErrNoMemory)
	}
	pm.reserved += n
	return nil
}

// ReleaseReserve returns n undrawn reserved frames to the ordinary pool.
func (pm *PhysMem) ReleaseReserve(n int) {
	if n <= 0 {
		return
	}
	pm.reserved -= n
	if pm.reserved < 0 {
		pm.reserved = 0
	}
}

// Reserved reports the outstanding (undrawn) reservation count.
func (pm *PhysMem) Reserved() int {
	return pm.reserved
}

// AllocFrame returns a zeroed frame from node 0, or an error when physical
// memory is exhausted. On a flat pool this is the only allocation path.
func (pm *PhysMem) AllocFrame() (FrameID, error) { return pm.AllocFrameOn(0) }

// AllocFrameOn returns a zeroed frame placed on the given node. The node's
// free list is preferred; a fresh frame is grown (and tagged) otherwise.
// When the global limit is reached the other nodes' free lists serve as
// fallback, mirroring Linux's zonelist fallback — the frame keeps its
// original node tag, so the placement really is remote. With watermarks
// armed the allocation additionally refuses (ErrWatermark) to leave fewer
// than Min frames available.
func (pm *PhysMem) AllocFrameOn(node int) (FrameID, error) {
	return pm.alloc(node, false)
}

// AllocFrameReserved draws one frame against an outstanding reservation:
// it bypasses the watermark gate (the reservation already set the frame
// aside) and decrements the reservation count. Without an outstanding
// reservation it behaves exactly like AllocFrameOn.
func (pm *PhysMem) AllocFrameReserved(node int) (FrameID, error) {
	if pm.reserved <= 0 {
		return pm.alloc(node, false)
	}
	id, err := pm.alloc(node, true)
	if err == nil {
		pm.reserved--
	}
	return id, err
}

// FreeFrameToReserve frees a frame drawn by AllocFrameReserved, crediting
// the reservation back, so a reservation can back an unbounded sequence of
// transient draws (bounce buffers) without depleting.
func (pm *PhysMem) FreeFrameToReserve(id FrameID) {
	if id == NilFrame {
		return
	}
	pm.release(id)
	pm.reserved++
}

// alloc is the allocator core. reserved draws skip the watermark gate but
// never the hard limit.
func (pm *PhysMem) alloc(node int, reserved bool) (FrameID, error) {
	if node < 0 || node >= pm.nodes {
		node = 0
	}
	if !reserved && pm.limit > 0 && pm.wmOn {
		// Gate before touching any free list: granting this frame must
		// leave at least Min frames available to reservation holders.
		if pm.FreeFrames()-1 < pm.wm.Min {
			return NilFrame, fmt.Errorf(
				"mem: %w (min %d, %d available, %d reserved, %d/%d frames in use)",
				ErrWatermark, pm.wm.Min, pm.FreeFrames(), pm.reserved, pm.inUse, pm.limit)
		}
	}
	if id, ok := pm.popFree(node); ok {
		pm.inUse++
		return id, nil
	}
	if pm.limit > 0 && len(pm.table)-1 >= pm.limit {
		// The pool is fully grown: spill over the other nodes' free lists
		// (Linux's zonelist fallback) before declaring exhaustion.
		for i := 1; i < pm.nodes; i++ {
			if id, ok := pm.popFree((node + i) % pm.nodes); ok {
				pm.inUse++
				return id, nil
			}
		}
		return NilFrame, fmt.Errorf("mem: %w (%d frames)", ErrNoMemory, pm.limit)
	}
	pm.table = append(pm.table, &zeroFrame)
	pm.nodeTab = append(pm.nodeTab, uint8(node))
	pm.inUse++
	return FrameID(len(pm.table) - 1), nil
}

// popFree pops the youngest free frame of a node.
func (pm *PhysMem) popFree(node int) (FrameID, bool) {
	l := pm.free[node]
	if len(l) == 0 {
		return NilFrame, false
	}
	id := l[len(l)-1]
	pm.free[node] = l[:len(l)-1]
	return id, true
}

// AllocFrames allocates n frames from node 0, returning an error (and
// freeing any partial allocation) if physical memory runs out.
func (pm *PhysMem) AllocFrames(n int) ([]FrameID, error) {
	return pm.AllocFramesOn(0, n)
}

// AllocFramesOn is AllocFrames with node placement: every frame prefers
// the given node and spills like AllocFrameOn.
func (pm *PhysMem) AllocFramesOn(node, n int) ([]FrameID, error) {
	ids := make([]FrameID, 0, n)
	for i := 0; i < n; i++ {
		id, err := pm.AllocFrameOn(node)
		if err != nil {
			for _, got := range ids {
				pm.FreeFrame(got)
			}
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// FreeFrame returns a frame to the free pool. Freeing NilFrame is a no-op.
// The caller is responsible for ensuring no mapping still references the
// frame; the MMU layer enforces this for address spaces.
func (pm *PhysMem) FreeFrame(id FrameID) {
	if id == NilFrame {
		return
	}
	pm.release(id)
}

// release unbacks a frame and returns it to its node's free list, so a
// free frame always reads zero and reuse clears nothing.
func (pm *PhysMem) release(id FrameID) {
	pm.unback(id)
	node := 0
	if int(id) < len(pm.nodeTab) {
		node = int(pm.nodeTab[id])
	}
	if node >= len(pm.free) {
		node = 0
	}
	pm.free[node] = append(pm.free[node], id)
	pm.inUse--
}

// Frame returns the writable byte storage of a frame, backing an
// unbacked frame with a cleared host page first. It panics on NilFrame or
// an out-of-range ID, which always indicates a translation bug.
func (pm *PhysMem) Frame(id FrameID) *[PageSize]byte {
	if int(id) >= len(pm.table) || pm.table[id] == &zeroFrame { // NilFrame's slot is unbacked
		pm.back(id)
	}
	return pm.table[id]
}

// View returns the bytes of a frame for reading only: an unbacked frame
// returns the shared zero page, which nothing may write. It panics like
// Frame.
func (pm *PhysMem) View(id FrameID) *[PageSize]byte {
	if id == NilFrame || int(id) >= len(pm.table) {
		badFrame(id)
	}
	return pm.table[id]
}

// Backed reports whether a frame has a host page of its own; an unbacked
// frame reads zero.
func (pm *PhysMem) Backed(id FrameID) bool { return pm.View(id) != &zeroFrame }

// Write copies p into frame id at off. Nonzero bytes back the frame
// through Frame; zeros are stored by Clear, so they back nothing.
func (pm *PhysMem) Write(id FrameID, off int, p []byte) {
	if AllZero(p) {
		pm.Clear(id, off, len(p))
		return
	}
	copy(pm.Frame(id)[off:], p)
}

// Clear zeroes n bytes of frame id at off without backing it: a whole
// page gives the frame's host page back, an unbacked frame already reads
// zero, and a backed one is cleared in place.
func (pm *PhysMem) Clear(id FrameID, off, n int) {
	switch {
	case n == PageSize:
		pm.unback(id)
	case pm.Backed(id):
		clear(pm.table[id][off : off+n])
	}
}

// AllZero reports whether p, at most a page long, holds only zeros.
func AllZero(p []byte) bool { return bytes.Equal(p, zeroFrame[:len(p)]) }

// unback makes a frame read zero by giving its host page to the spare
// list. An unbacked frame is left as it is.
func (pm *PhysMem) unback(id FrameID) {
	if f := pm.View(id); f != &zeroFrame {
		pm.spare = append(pm.spare, f)
		pm.table[id] = &zeroFrame
	}
}

// back gives an unbacked frame a cleared host page, a spare one when
// there is one, and panics on an invalid ID. It is Frame's slow path,
// kept out of line so that Frame inlines.
//
//go:noinline
func (pm *PhysMem) back(id FrameID) {
	if id == NilFrame || int(id) >= len(pm.table) {
		badFrame(id)
	}
	if n := len(pm.spare); n > 0 {
		f := pm.spare[n-1]
		pm.spare = pm.spare[:n-1]
		*f = [PageSize]byte{}
		pm.table[id] = f
	} else {
		pm.table[id] = new([PageSize]byte)
	}
}

// badFrame is the accessors' panic, kept out of line so that they inline.
//
//go:noinline
func badFrame(id FrameID) {
	panic(fmt.Sprintf("mem: invalid frame %d", id))
}

// FramesInUse reports the number of live frames.
func (pm *PhysMem) FramesInUse() int {
	return pm.inUse
}

// Limit reports the configured frame limit (0 = unlimited).
func (pm *PhysMem) Limit() int { return pm.limit }

// NodeUsage is the per-node slice of a Usage report.
type NodeUsage struct {
	Node  int
	Grown int // frames ever placed on this node
	Free  int // of those, currently on the node's free list
}

// Usage is a point-in-time snapshot of the allocator's accounting — the
// raw material of OOM-style diagnostics.
type Usage struct {
	Limit      int // 0 = unlimited
	Grown      int // frames ever created
	InUse      int
	Reserved   int
	Available  int // limit - inUse - reserved; -1 when unlimited
	Watermarks Watermarks
	Pressure   Pressure
	Nodes      []NodeUsage
}

// Usage snapshots the allocator state.
func (pm *PhysMem) Usage() Usage {
	u := Usage{
		Limit:      pm.limit,
		Grown:      len(pm.table) - 1,
		InUse:      pm.inUse,
		Reserved:   pm.reserved,
		Available:  pm.FreeFrames(),
		Watermarks: pm.wm,
		Nodes:      make([]NodeUsage, pm.nodes),
	}
	if pm.wm.Enabled() {
		switch {
		case u.Available <= pm.wm.Min:
			u.Pressure = PressureMin
		case u.Available <= pm.wm.Low:
			u.Pressure = PressureLow
		}
	}
	for n := range u.Nodes {
		u.Nodes[n] = NodeUsage{Node: n, Free: len(pm.free[n])}
	}
	for _, tag := range pm.nodeTab[1:] {
		if int(tag) < len(u.Nodes) {
			u.Nodes[tag].Grown++
		}
	}
	return u
}
