// Package heap implements the simulated JVM heap that SVAGC and the
// baseline collectors manage: a contiguous bump-allocated space on a
// simulated address space, with TLABs, the page-alignment rules of the
// paper's Algorithm 3 for swappable (large) objects, and a linearly
// walkable object layout maintained with filler objects.
package heap

import (
	"fmt"

	"repro/internal/machine"
)

// Object header layout (three 8-byte words):
//
//	word0  bits 0..47  object size in bytes, including the header
//	       bit  56     mark bit (set during GC marking)
//	       bit  57     filler bit (dead padding; walkers skip it)
//	word1  bits 0..31  number of reference slots
//	       bits 32..47 class ID (workload-defined type tag)
//	       bits 48..55 age (minor-GC survival count, used by pargc)
//	word2  forwarding virtual address (0 when none)
//
// Reference slots (8 bytes each, a VA or 0) follow the header; the payload
// follows the reference slots. Filler objects consist of word0 only.
const (
	// HeaderBytes is the full header size of a normal object.
	HeaderBytes = 24
	// FillerHeaderBytes is the header size of a filler: one word.
	FillerHeaderBytes = 8
	// MinFillerBytes is the smallest representable gap.
	MinFillerBytes = FillerHeaderBytes

	sizeMask  = (uint64(1) << 48) - 1
	markBit   = uint64(1) << 56
	fillerBit = uint64(1) << 57

	refsShift  = 0
	refsMask   = uint64(0xffffffff)
	classShift = 32
	classMask  = uint64(0xffff)
	ageShift   = 48
	ageMask    = uint64(0xff)
)

// Object is a reference to a heap object: the virtual address of its
// header. The zero Object is the null reference.
type Object uint64

// VA returns the object's header address.
func (o Object) VA() uint64 { return uint64(o) }

// AllocSpec describes an allocation request.
type AllocSpec struct {
	NumRefs int    // reference slots
	Payload int    // payload bytes (rounded up to 8)
	Class   uint16 // workload-defined type tag
}

// TotalBytes returns the rounded total footprint of the object.
func (s AllocSpec) TotalBytes() int {
	return HeaderBytes + 8*s.NumRefs + (s.Payload+7)&^7
}

func (s AllocSpec) validate() error {
	if s.NumRefs < 0 || s.Payload < 0 {
		return fmt.Errorf("heap: invalid spec %+v", s)
	}
	if uint64(s.TotalBytes()) > sizeMask {
		return fmt.Errorf("heap: object of %d bytes too large", s.TotalBytes())
	}
	return nil
}

func packWord0(size int, mark, filler bool) uint64 {
	w := uint64(size) & sizeMask
	if mark {
		w |= markBit
	}
	if filler {
		w |= fillerBit
	}
	return w
}

func packWord1(numRefs int, class uint16, age uint8) uint64 {
	return uint64(numRefs)&refsMask |
		(uint64(class)&classMask)<<classShift |
		(uint64(age)&ageMask)<<ageShift
}

// Header is the decoded first word of an object.
type Header struct {
	Size   int
	Marked bool
	Filler bool
}

// ReadHeader performs a charged read of word0 and decodes it.
func (h *Heap) ReadHeader(ctx *machine.Context, o Object) (Header, error) {
	w, err := h.AS.ReadWord(&ctx.Env, o.VA())
	if err != nil {
		return Header{}, err
	}
	return Header{
		Size:   int(w & sizeMask),
		Marked: w&markBit != 0,
		Filler: w&fillerBit != 0,
	}, nil
}

// SetMark sets or clears the mark bit (charged read-modify-write).
func (h *Heap) SetMark(ctx *machine.Context, o Object, marked bool) error {
	w, err := h.AS.ReadWord(&ctx.Env, o.VA())
	if err != nil {
		return err
	}
	if marked {
		w |= markBit
	} else {
		w &^= markBit
	}
	return h.AS.WriteWord(&ctx.Env, o.VA(), w)
}

// Meta is the decoded second word of an object.
type Meta struct {
	NumRefs int
	Class   uint16
	Age     uint8
}

// ReadMeta performs a charged read of word1 and decodes it.
func (h *Heap) ReadMeta(ctx *machine.Context, o Object) (Meta, error) {
	w, err := h.AS.ReadWord(&ctx.Env, o.VA()+8)
	if err != nil {
		return Meta{}, err
	}
	return Meta{
		NumRefs: int(w & refsMask),
		Class:   uint16(w >> classShift & classMask),
		Age:     uint8(w >> ageShift & ageMask),
	}, nil
}

// SetAge stores the object's age (charged read-modify-write).
func (h *Heap) SetAge(ctx *machine.Context, o Object, age uint8) error {
	w, err := h.AS.ReadWord(&ctx.Env, o.VA()+8)
	if err != nil {
		return err
	}
	w = w&^(ageMask<<ageShift) | uint64(age)<<ageShift
	return h.AS.WriteWord(&ctx.Env, o.VA()+8, w)
}

// Forward returns the forwarding address stored in the header (0 = none).
func (h *Heap) Forward(ctx *machine.Context, o Object) (Object, error) {
	w, err := h.AS.ReadWord(&ctx.Env, o.VA()+16)
	return Object(w), err
}

// SetForward stores the forwarding address.
func (h *Heap) SetForward(ctx *machine.Context, o Object, fwd Object) error {
	return h.AS.WriteWord(&ctx.Env, o.VA()+16, fwd.VA())
}

// ClearGCBits rewrites the object's word0 as an unmarked, non-filler
// header of the given size and nulls the forwarding word — the per-object
// cleanup a compacting collector performs as it relocates (charged).
func (h *Heap) ClearGCBits(ctx *machine.Context, o Object, size int) error {
	if err := h.AS.WriteWord(&ctx.Env, o.VA(), packWord0(size, false, false)); err != nil {
		return err
	}
	return h.AS.WriteWord(&ctx.Env, o.VA()+16, 0)
}

// RefSlotVA returns the address of reference slot i.
func (o Object) RefSlotVA(i int) uint64 { return o.VA() + HeaderBytes + 8*uint64(i) }

// Ref reads reference slot i (charged).
func (h *Heap) Ref(ctx *machine.Context, o Object, i int) (Object, error) {
	w, err := h.AS.ReadWord(&ctx.Env, o.RefSlotVA(i))
	return Object(w), err
}

// SetRef writes reference slot i (charged), invoking the heap's write
// barrier if one is installed (generational collectors use it to maintain
// their remembered set).
func (h *Heap) SetRef(ctx *machine.Context, o Object, i int, target Object) error {
	if h.Barrier != nil {
		h.Barrier(ctx, o, i, target)
	}
	return h.AS.WriteWord(&ctx.Env, o.RefSlotVA(i), target.VA())
}

// PayloadVA returns the address of the payload given the object's
// reference-slot count (callers that know their class layout can compute
// it without a charged meta read).
func (o Object) PayloadVA(numRefs int) uint64 {
	return o.VA() + HeaderBytes + 8*uint64(numRefs)
}

// ReadPayload reads len(p) payload bytes starting at byte offset off
// (charged bulk read). numRefs must match the object's layout.
func (h *Heap) ReadPayload(ctx *machine.Context, o Object, numRefs, off int, p []byte) error {
	return h.AS.Read(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), p)
}

// WritePayload writes p into the payload at byte offset off (charged).
func (h *Heap) WritePayload(ctx *machine.Context, o Object, numRefs, off int, p []byte) error {
	return h.AS.Write(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), p)
}

// ReadPayloadWord reads the 8-byte payload word at byte offset off.
func (h *Heap) ReadPayloadWord(ctx *machine.Context, o Object, numRefs, off int) (uint64, error) {
	return h.AS.ReadWord(&ctx.Env, o.PayloadVA(numRefs)+uint64(off))
}

// WritePayloadWord writes the 8-byte payload word at byte offset off.
func (h *Heap) WritePayloadWord(ctx *machine.Context, o Object, numRefs, off int, v uint64) error {
	return h.AS.WriteWord(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), v)
}
