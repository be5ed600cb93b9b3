package heap

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// TLAB is a thread-local allocation buffer carved from the shared heap
// frontier. Following the paper's fragmentation fix (§IV), small objects
// grow upward from the TLAB's start while swappable (page-aligned) objects
// grow downward from its end, so alignment gaps never strand space between
// a large object and the preceding small one. Gaps that do arise (below a
// downward-placed large object, and the unused middle at retirement) are
// plugged with fillers to keep the heap walkable.
type TLAB struct {
	start    uint64 // buffer base
	smallTop uint64 // next small allocation (grows up)
	largeBot uint64 // lowest large allocation (grows down)
	end      uint64 // buffer limit
	valid    bool

	// Wasted tracks filler bytes emitted for this TLAB (fragmentation
	// accounting for the §IV experiments).
	Wasted uint64
}

// RefillTLAB carves a fresh buffer from the shared frontier into t. The
// previous buffer must already be retired.
func (h *Heap) RefillTLAB(ctx *machine.Context, t *TLAB) error {
	if t.valid {
		return fmt.Errorf("heap: refilling an unretired TLAB")
	}
	// Start TLABs page-aligned so the downward large-object area can use
	// page alignment without leaking out of the buffer.
	base := (h.top + mem.PageMask) &^ uint64(mem.PageMask)
	limit := base + uint64(h.tlabBytes)
	if limit > h.allocEnd() {
		return ErrHeapFull
	}
	gap := int(base - h.top)
	h.top = limit
	h.tlabs = append(h.tlabs, t)

	if err := h.WriteFiller(ctx, base-uint64(gap), gap); err != nil {
		return err
	}
	*t = TLAB{start: base, smallTop: base, largeBot: limit, end: limit, valid: true, Wasted: t.Wasted + uint64(gap)}
	return nil
}

// reserve carves size bytes from the TLAB, placing swappable objects
// page-aligned from the end and others from the start. It reports whether
// the reservation fit. Fillers for large-object alignment gaps are written
// immediately so the buffer interior stays walkable above largeBot.
func (t *TLAB) reserve(h *Heap, ctx *machine.Context, size int) (uint64, bool) {
	if !t.valid {
		return 0, false
	}
	if h.Policy.Swappable(size) {
		objVA := (t.largeBot - uint64(size)) &^ uint64(mem.PageMask)
		if objVA < t.smallTop || objVA > t.largeBot { // underflow check
			return 0, false
		}
		gap := int(t.largeBot - (objVA + uint64(size)))
		if err := h.WriteFiller(ctx, objVA+uint64(size), gap); err != nil {
			return 0, false
		}
		t.Wasted += uint64(gap)
		t.largeBot = objVA
		return objVA, true
	}
	if t.smallTop+uint64(size) > t.largeBot {
		return 0, false
	}
	va := t.smallTop
	t.smallTop += uint64(size)
	return va, true
}

// Retire fills the unused middle of the TLAB with a filler and
// invalidates it. Retiring an invalid TLAB is a no-op. The heap's GC entry
// point retires all outstanding TLABs before walking the heap.
func (t *TLAB) Retire(h *Heap, ctx *machine.Context) error {
	if !t.valid {
		return nil
	}
	gap := int(t.largeBot - t.smallTop)
	if err := h.WriteFiller(ctx, t.smallTop, gap); err != nil {
		return err
	}
	t.Wasted += uint64(gap)
	t.valid = false

	for i, other := range h.tlabs {
		if other == t {
			h.tlabs = append(h.tlabs[:i], h.tlabs[i+1:]...)
			break
		}
	}
	return nil
}

// Valid reports whether the TLAB currently owns a buffer.
func (t *TLAB) Valid() bool { return t.valid }

// RetireAllTLABs retires every outstanding TLAB — called at the GC
// safepoint so the whole heap below Top parses.
func (h *Heap) RetireAllTLABs(ctx *machine.Context) error {
	outstanding := append([]*TLAB(nil), h.tlabs...)
	for _, t := range outstanding {
		if err := t.Retire(h, ctx); err != nil {
			return err
		}
	}
	return nil
}
