package heap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// ErrHeapFull signals an allocation failure; the runtime reacts by
// triggering a collection and retrying (Algorithm 3 line 15).
var ErrHeapFull = fmt.Errorf("heap: out of memory")

// Config describes a heap to build.
type Config struct {
	// SizeBytes is the heap capacity (rounded up to whole pages).
	SizeBytes int64
	// Policy controls large-object alignment and moving.
	Policy core.MovePolicy
	// ZeroOnAlloc controls Java-style zeroing of new objects (default
	// behaviour; disable only in microbenchmarks).
	ZeroOnAlloc bool
}

// DefaultTLABBytes is the thread-local allocation buffer size every heap
// starts with.
const DefaultTLABBytes = 64 << 10

// Heap is a contiguous, linearly walkable object space.
type Heap struct {
	AS     *mmu.AddressSpace
	K      *kernel.Kernel
	Policy core.MovePolicy

	// Barrier, when non-nil, is invoked before every SetRef. Generational
	// collectors install it to track old-to-young pointers.
	Barrier func(ctx *machine.Context, holder Object, slot int, target Object)

	start, end uint64

	top         uint64
	softLimit   uint64 // 0 = none; generational collectors model eden with it
	tlabBytes   int
	zeroOnAlloc bool
	tlabs       []*TLAB // outstanding TLABs, retired in bulk before GC

	// Allocation statistics.
	allocatedBytes   uint64
	allocatedObjects uint64
}

// New maps a fresh region of cfg.SizeBytes and builds a heap over it.
func New(as *mmu.AddressSpace, k *kernel.Kernel, cfg Config) (*Heap, error) {
	if cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("heap: SizeBytes must be positive")
	}
	pages := int((cfg.SizeBytes + mem.PageSize - 1) >> mem.PageShift)
	start, err := as.MapRegion(pages)
	if err != nil {
		return nil, err
	}
	return &Heap{
		AS:          as,
		K:           k,
		Policy:      cfg.Policy,
		start:       start,
		end:         start + uint64(pages)<<mem.PageShift,
		top:         start,
		tlabBytes:   DefaultTLABBytes,
		zeroOnAlloc: cfg.ZeroOnAlloc,
	}, nil
}

// Start returns the heap's base address.
func (h *Heap) Start() uint64 { return h.start }

// End returns the address just past the heap.
func (h *Heap) End() uint64 { return h.end }

// Top returns the current allocation frontier.
func (h *Heap) Top() uint64 {
	return h.top
}

// SetTop resets the allocation frontier — used by compaction after
// sliding the live objects down.
func (h *Heap) SetTop(top uint64) {
	if top < h.start || top > h.end {
		panic(fmt.Sprintf("heap: SetTop(%#x) outside [%#x,%#x]", top, h.start, h.end))
	}
	h.top = top
}

// Capacity returns the heap size in bytes.
func (h *Heap) Capacity() int { return int(h.end - h.start) }

// SetSoftLimit installs an allocation ceiling below the hard end of the
// heap; allocations that would cross it fail with ErrHeapFull so the
// collector can run early. Generational collectors use it to model an
// eden: a fresh ceiling is installed after every collection. Zero removes
// the limit. Values are clamped to the heap range.
func (h *Heap) SetSoftLimit(limit uint64) {
	if limit != 0 {
		if limit < h.top {
			limit = h.top
		}
		if limit > h.end {
			limit = h.end
		}
	}
	h.softLimit = limit
}

// SoftLimit returns the current ceiling (0 = none).
func (h *Heap) SoftLimit() uint64 {
	return h.softLimit
}

// allocEnd returns the effective allocation ceiling.
func (h *Heap) allocEnd() uint64 {
	if h.softLimit != 0 && h.softLimit < h.end {
		return h.softLimit
	}
	return h.end
}

// UsedBytes returns the bytes below the allocation frontier.
func (h *Heap) UsedBytes() int { return int(h.Top() - h.start) }

// Occupancy returns the heap fill fraction in [0, 1].
func (h *Heap) Occupancy() float64 {
	if c := h.Capacity(); c > 0 {
		return float64(h.UsedBytes()) / float64(c)
	}
	return 0
}

// AllocStats reports cumulative allocation counters.
func (h *Heap) AllocStats() (objects, bytes uint64) {
	return h.allocatedObjects, h.allocatedBytes
}

// writeHeader emits a full object header at va (charged) as one declared
// three-word run — the allocation fast path settles it in a single
// batched charge on machines where batching is enabled.
func (h *Heap) writeHeader(ctx *machine.Context, va uint64, spec AllocSpec) error {
	words := [3]uint64{
		packWord0(spec.TotalBytes(), false, false),
		packWord1(spec.NumRefs, spec.Class, 0),
		0, // forwarding word
	}
	return h.AS.WriteRun(&ctx.Env, va, words[:])
}

// WriteFiller emits a filler object covering [va, va+size). Size must be
// at least MinFillerBytes and a multiple of 8. Zero size is a no-op.
func (h *Heap) WriteFiller(ctx *machine.Context, va uint64, size int) error {
	if size == 0 {
		return nil
	}
	if size < MinFillerBytes || size%8 != 0 {
		return fmt.Errorf("heap: bad filler size %d at %#x", size, va)
	}
	return h.AS.WriteWord(&ctx.Env, va, packWord0(size, false, true))
}

var zeroes [64 << 10]byte

// zeroRange performs a charged zeroing write over [va, va+n).
func (h *Heap) zeroRange(ctx *machine.Context, va uint64, n int) error {
	for n > 0 {
		c := n
		if c > len(zeroes) {
			c = len(zeroes)
		}
		if err := h.AS.WriteStream(&ctx.Env, va, zeroes[:c], false); err != nil {
			return err
		}
		va += uint64(c)
		n -= c
	}
	return nil
}

// initObject writes the header, zeroes the reference slots and (if
// configured) the payload.
func (h *Heap) initObject(ctx *machine.Context, va uint64, spec AllocSpec) (Object, error) {
	if err := h.writeHeader(ctx, va, spec); err != nil {
		return 0, err
	}
	n := spec.TotalBytes() - HeaderBytes
	if !h.zeroOnAlloc {
		n = 8 * spec.NumRefs // reference slots must always start null
	}
	if err := h.zeroRange(ctx, va+HeaderBytes, n); err != nil {
		return 0, err
	}
	h.allocatedObjects++
	h.allocatedBytes += uint64(spec.TotalBytes())
	return Object(va), nil
}

// AllocShared allocates directly from the shared frontier, following the
// paper's AllocMem (Algorithm 3 lines 12–20): swappable objects are placed
// on the first free page and the frontier is re-aligned after them, with
// fillers keeping the heap walkable. It returns ErrHeapFull when the
// object does not fit; the caller is expected to collect and retry.
func (h *Heap) AllocShared(ctx *machine.Context, spec AllocSpec) (Object, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	size := spec.TotalBytes()

	newTop := h.Policy.IfSwapAlign(size, h.top)
	if newTop+uint64(size) > h.allocEnd() {
		return 0, ErrHeapFull
	}
	gapBefore := int(newTop - h.top)
	objVA := newTop
	afterObj := objVA + uint64(size)
	alignedAfter := h.Policy.IfSwapAlign(size, afterObj)
	if alignedAfter > h.end {
		alignedAfter = h.end
	}
	gapAfter := int(alignedAfter - afterObj)
	h.top = alignedAfter

	if err := h.WriteFiller(ctx, objVA-uint64(gapBefore), gapBefore); err != nil {
		return 0, err
	}
	if err := h.WriteFiller(ctx, afterObj, gapAfter); err != nil {
		return 0, err
	}
	return h.initObject(ctx, objVA, spec)
}

// Alloc allocates an object, preferring the thread's TLAB for ordinary
// objects and for swappable objects that fit (placed page-aligned from the
// TLAB's end, per §IV's fragmentation fix). Objects too big for a TLAB go
// to the shared frontier. tlab may be nil to force the shared path.
func (h *Heap) Alloc(ctx *machine.Context, tlab *TLAB, spec AllocSpec) (Object, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	size := spec.TotalBytes()
	if tlab == nil || size > h.tlabBytes/2 {
		return h.AllocShared(ctx, spec)
	}
	if va, ok := tlab.reserve(h, ctx, size); ok {
		return h.initObject(ctx, va, spec)
	}
	// TLAB exhausted: retire it and carve a fresh one.
	if err := tlab.Retire(h, ctx); err != nil {
		return 0, err
	}
	if err := h.RefillTLAB(ctx, tlab); err != nil {
		return 0, err
	}
	if va, ok := tlab.reserve(h, ctx, size); ok {
		return h.initObject(ctx, va, spec)
	}
	// Should not happen (size <= tlabBytes/2), but fall back safely.
	return h.AllocShared(ctx, spec)
}

// Contains reports whether va lies inside the heap range.
func (h *Heap) Contains(va uint64) bool { return va >= h.start && va < h.end }

// Walk iterates objects (and fillers) in [from, to) in address order with
// charged header reads, invoking fn for each. fn returning false stops the
// walk early.
func (h *Heap) Walk(ctx *machine.Context, from, to uint64,
	fn func(o Object, hd Header) (bool, error)) error {

	cur := from
	for cur < to {
		hd, err := h.ReadHeader(ctx, Object(cur))
		if err != nil {
			return err
		}
		if hd.Size < MinFillerBytes || cur+uint64(hd.Size) > to {
			return fmt.Errorf("heap: corrupt walk at %#x: size %d", cur, hd.Size)
		}
		cont, err := fn(Object(cur), hd)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		cur += uint64(hd.Size)
	}
	return nil
}

// VerifyIntegrity performs VerifyWalkable plus referential checks: every
// non-null reference slot of every object must point at the header of a
// parseable object, and every root must too. It reads raw (uncharged)
// memory; tests and stress harnesses call it between collections.
func (h *Heap) VerifyIntegrity(roots []Object) error {
	if err := h.VerifyWalkable(); err != nil {
		return err
	}
	// First pass: collect valid object starts.
	starts := map[uint64]bool{}
	type objInfo struct {
		va      uint64
		numRefs int
	}
	var objs []objInfo
	cur, top := h.start, h.Top()
	var w [8]byte
	readWord := func(va uint64) (uint64, error) {
		if err := h.AS.RawRead(va, w[:]); err != nil {
			return 0, err
		}
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(w[i])
		}
		return v, nil
	}
	for cur < top {
		w0, err := readWord(cur)
		if err != nil {
			return err
		}
		size := int(w0 & sizeMask)
		if w0&fillerBit == 0 {
			w1, err := readWord(cur + 8)
			if err != nil {
				return err
			}
			starts[cur] = true
			objs = append(objs, objInfo{cur, int(w1 & refsMask)})
		}
		cur += uint64(size)
	}
	// Second pass: every reference resolves to an object start.
	for _, o := range objs {
		for i := 0; i < o.numRefs; i++ {
			ref, err := readWord(o.va + HeaderBytes + 8*uint64(i))
			if err != nil {
				return err
			}
			if ref != 0 && !starts[ref] {
				return fmt.Errorf("heap: object %#x slot %d holds dangling reference %#x", o.va, i, ref)
			}
		}
	}
	for i, r := range roots {
		if r != 0 && !starts[r.VA()] {
			return fmt.Errorf("heap: root %d holds dangling reference %#x", i, r.VA())
		}
	}
	return nil
}

// VerifyWalkable checks (without charging) that [start, top) parses as a
// well-formed sequence of objects and fillers, and that every swappable
// object is page-aligned. Tests and invariant checks use it.
func (h *Heap) VerifyWalkable() error {
	cur := h.start
	top := h.Top()
	var w0 [8]byte
	for cur < top {
		if err := h.AS.RawRead(cur, w0[:]); err != nil {
			return err
		}
		word := uint64(w0[0]) | uint64(w0[1])<<8 | uint64(w0[2])<<16 | uint64(w0[3])<<24 |
			uint64(w0[4])<<32 | uint64(w0[5])<<40 | uint64(w0[6])<<48 | uint64(w0[7])<<56
		size := int(word & sizeMask)
		filler := word&fillerBit != 0
		if size < MinFillerBytes || cur+uint64(size) > top {
			return fmt.Errorf("heap: unwalkable at %#x: size %d (top %#x)", cur, size, top)
		}
		if !filler && h.Policy.Swappable(size) && !core.PageAligned(cur) {
			return fmt.Errorf("heap: swappable object at %#x not page-aligned", cur)
		}
		cur += uint64(size)
	}
	if cur != top {
		return fmt.Errorf("heap: walk overshot top: %#x != %#x", cur, top)
	}
	return nil
}
