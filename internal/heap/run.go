package heap

import (
	"unsafe"

	"repro/internal/machine"
)

// Batched (declared-run) accessors. Each helper is the run-API
// counterpart of a per-word loop elsewhere in the package, with the same
// access order and charges — collectors and workloads that scan an
// object's slots densely use these so the machine can settle the whole
// scan in closed form (see mmu.Run).

// Refs reads the object's first len(dst) reference slots (charged) into
// dst as one dense run — the batched equivalent of calling Ref for
// i = 0..len(dst)-1.
func (h *Heap) Refs(ctx *machine.Context, o Object, dst []Object) error {
	if len(dst) == 0 {
		return nil
	}
	// An Object is its header's address as a uint64, so the slots' words
	// load straight into dst.
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&dst[0])), len(dst))
	return h.AS.ReadRun(&ctx.Env, o.RefSlotVA(0), words)
}

// ReadPayloadWords reads len(dst) consecutive 8-byte payload words
// starting at byte offset off (charged). numRefs must match the object's
// layout; off must be 8-aligned.
func (h *Heap) ReadPayloadWords(ctx *machine.Context, o Object, numRefs, off int, dst []uint64) error {
	return h.AS.ReadRun(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), dst)
}

// WritePayloadWords writes src as consecutive 8-byte payload words
// starting at byte offset off (charged). Payload words carry no
// references, so no write barrier applies.
func (h *Heap) WritePayloadWords(ctx *machine.Context, o Object, numRefs, off int, src []uint64) error {
	return h.AS.WriteRun(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), src)
}

// ReadPayloadStream reads len(dst) consecutive payload words starting at
// byte offset off as one charged sequential stream — charge-identical to
// ReadPayload of the same 8*len(dst) bytes, with no intermediate byte
// buffer or decode loop. Streams are bandwidth-charged, unlike the
// latency-charged ReadPayloadWords above: pick the accessor that matches
// what the call site charged before conversion.
func (h *Heap) ReadPayloadStream(ctx *machine.Context, o Object, numRefs, off int, dst []uint64) error {
	return h.AS.ReadWords(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), dst, false)
}

// WritePayloadStream writes src as one charged sequential stream —
// charge-identical to WritePayload of the same bytes. Payload words carry
// no references, so no write barrier applies.
func (h *Heap) WritePayloadStream(ctx *machine.Context, o Object, numRefs, off int, src []uint64) error {
	return h.AS.WriteWords(&ctx.Env, o.PayloadVA(numRefs)+uint64(off), src, false)
}
