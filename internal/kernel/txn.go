package kernel

import (
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// The swap system calls are transactional per request: validate-then-commit,
// with an undo log recording every PTE mutation so a mid-body failure (an
// unmapped page, an injected transient fault, a poisoned frame) rolls the
// request back to its pre-call mapping instead of leaving PTEs
// half-exchanged. The log stores resolved table pointers, not virtual
// addresses: a later huge swap in the same request may reparent a PTE table
// between the forward exchange and the rollback, and undoing through the
// table identity re-swaps exactly the entries the forward pass touched
// wherever they live now.

// undoKind discriminates the three mutation shapes a swap body performs.
type undoKind uint8

const (
	// undoPair re-swaps two PTEs exchanged by swapPTEs.
	undoPair undoKind = iota
	// undoPMD re-swaps two PMD entries exchanged by the huge-swap path.
	undoPMD
	// undoSlot restores one overlap-cycle slot to its previous frame.
	undoSlot
)

// undoOp is one recorded mutation.
type undoOp struct {
	kind       undoKind
	pt1, pt2   *mmu.PTETable // undoPair (both), undoSlot (pt1)
	idx1, idx2 int
	va1, va2   uint64      // undoPMD operands
	frame      mem.FrameID // undoSlot: frame to restore
}

// txn is the per-request undo log. The zero value is ready to use; reset
// lets one log be reused across the requests of a vector call so the
// common all-success path costs at most one allocation per syscall.
type txn struct {
	ops []undoOp
}

func (t *txn) reset() { t.ops = t.ops[:0] }

func (t *txn) notePair(pt1 *mmu.PTETable, idx1 int, pt2 *mmu.PTETable, idx2 int) {
	t.ops = append(t.ops, undoOp{kind: undoPair, pt1: pt1, idx1: idx1, pt2: pt2, idx2: idx2})
}

func (t *txn) notePMD(va1, va2 uint64) {
	t.ops = append(t.ops, undoOp{kind: undoPMD, va1: va1, va2: va2})
}

func (t *txn) noteSlot(pt *mmu.PTETable, idx int, prev mem.FrameID) {
	t.ops = append(t.ops, undoOp{kind: undoSlot, pt1: pt, idx1: idx, frame: prev})
}

// rollback replays the undo log in reverse, restoring the request's
// pre-call mapping. It charges the same lock and update costs as the
// forward operations (the kernel really does re-take the locks and dirty
// the entries), but no walk charges: a real implementation keeps the
// resolved PTE pointers in its undo log, exactly as ours does. Fault
// injection does not apply during rollback — the undo path must always
// complete.
func (k *Kernel) rollback(ctx *machine.Context, as *mmu.AddressSpace, t *txn, reqVA uint64) {
	if len(t.ops) == 0 {
		return
	}
	start := ctx.Clock.Now()
	for j := len(t.ops) - 1; j >= 0; j-- {
		op := &t.ops[j]
		switch op.kind {
		case undoPair:
			ctx.Clock.Advance(2 * ctx.Cost.PTELockNs)
			// Re-swap the full PTE structs, mirroring the forward
			// exchange — swap state and tier slot roll back with the
			// frame.
			e1, e2 := op.pt1.Entry(op.idx1), op.pt2.Entry(op.idx2)
			*e1, *e2 = *e2, *e1
			ctx.Clock.Advance(2 * ctx.Cost.PTEUpdateNs)
		case undoPMD:
			ctx.Clock.Advance(2*ctx.Cost.PTELockNs + 2*ctx.Cost.PTEUpdateNs)
			// Both slots were populated by the forward exchange, so the
			// re-swap cannot fail; the error path exists only for callers
			// naming empty spans.
			_ = as.SwapPMDEntries(op.va1, op.va2)
		case undoSlot:
			ctx.Clock.Advance(ctx.Cost.PTELockNs)
			op.pt1.Entry(op.idx1).Frame = op.frame
			ctx.Clock.Advance(ctx.Cost.PTEUpdateNs)
		}
	}
	ctx.Perf.SwapRollbacks++
	ctx.Trace.Emit(trace.KindRollback, "swap-rollback", start,
		ctx.Clock.Now()-start, uint64(len(t.ops)), reqVA)
}

// fireTransient rolls the swap-transient fault site for one page position;
// when it fires, the request fails with a retryable EAGAIN-style error
// carrying the position's VA, and the caller rolls back.
func fireTransient(ctx *machine.Context, va uint64) error {
	if !ctx.Fault.Fire(trace.FaultSwapTransient) {
		return nil
	}
	ctx.Perf.FaultsInjected++
	ctx.Trace.Emit(trace.KindFault, "fault:swap-transient", ctx.Clock.Now(), 0,
		uint64(trace.FaultSwapTransient), va)
	return &VAError{VA: va, Err: ErrAgain}
}

// fireFarWrite rolls the far-tier write-failure site for one page
// position: exchanging with a swapped-out PTE rewrites its swap entry
// on the backing device, and that write can fail transiently. Like the
// swap-transient site, the error is retryable and the caller rolls the
// request back through the undo log.
func fireFarWrite(ctx *machine.Context, va uint64) error {
	if !ctx.Fault.Fire(trace.FaultFarWrite) {
		return nil
	}
	ctx.Perf.FaultsInjected++
	ctx.Trace.Emit(trace.KindFault, "fault:far-write", ctx.Clock.Now(), 0,
		uint64(trace.FaultFarWrite), va)
	return &VAError{VA: va, Err: ErrAgain}
}

// stallPTELock rolls the PTE-lock-stall site before a lock acquisition,
// charging the injected hold-up to the caller's clock when it fires.
func stallPTELock(ctx *machine.Context, va uint64) {
	if !ctx.Fault.Fire(trace.FaultPTELockStall) {
		return
	}
	d := fault.LockStallNs
	t0 := ctx.Clock.Now()
	ctx.Clock.Advance(d)
	ctx.Perf.FaultsInjected++
	ctx.Trace.Emit(trace.KindFault, "fault:pte-lock-stall", t0, d,
		uint64(trace.FaultPTELockStall), va)
}

// checkPoison fails the exchange when either frame is ECC-bad: remapping a
// poisoned frame would publish unscrubbed memory under a new address, so
// the kernel refuses and the caller must degrade to the byte-copy path.
// The returned error carries the VA whose frame is poisoned. Non-resident
// sides pass NilFrame — no frame, nothing to poison.
func checkPoison(ctx *machine.Context, f1, f2 mem.FrameID, va1, va2 uint64) error {
	inj := ctx.Fault
	if inj == nil {
		return nil
	}
	va := va1
	switch {
	case f1 != mem.NilFrame && inj.FramePoisoned(uint64(f1)):
	case f2 != mem.NilFrame && inj.FramePoisoned(uint64(f2)):
		va = va2
	default:
		return nil
	}
	ctx.Perf.FaultsInjected++
	ctx.Trace.Emit(trace.KindFault, "fault:frame-poison", ctx.Clock.Now(), 0,
		uint64(trace.FaultFramePoison), va)
	return &VAError{VA: va, Err: ErrPoisoned}
}
