package kernel

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SwapVA exchanges the physical frames backing two equally sized virtual
// ranges by swapping their PTEs — the paper's Algorithm 1. After the call,
// loads through either range observe the other range's former contents,
// with zero bytes copied. The TLB-coherence policy is selected by opts.
//
// The call is transactional: arguments are validated before any cost is
// charged, and a failure discovered mid-commit (an unmapped page, an
// injected transient fault, a poisoned frame) rolls every exchanged PTE
// back, so on error the mapping is exactly the pre-call one and on success
// all pages swapped. The trailing flush runs whenever any PTE was touched
// — even transiently before a rollback — so no core can keep a stale
// translation cached from the aborted window.
//
// When the two ranges overlap and opts.Overlap is set, the call
// dispatches to the cycle-chasing Algorithm 2 (see swapOverlapBody);
// otherwise overlapping ranges are processed by the same sequential
// pairwise loop, which yields the identical final layout (a rotation of
// the combined region) at O(2n) cost instead of O(n+δ).
func (k *Kernel) SwapVA(ctx *machine.Context, as *mmu.AddressSpace,
	va1, va2 uint64, pages int, opts Options) error {

	if err := checkArgs(va1, va2, pages); err != nil {
		return err
	}
	start := ctx.Clock.Now()
	ctx.Clock.Advance(ctx.Cost.SyscallNs)
	ctx.Perf.Syscalls++
	ctx.Perf.SwapVACalls++
	var err error
	if va1 != va2 { // swapping a range with itself is a no-op
		var touched bool
		touched, err = k.applySwap(ctx, as, va1, va2, pages, opts)
		if err == nil {
			ctx.Perf.PagesSwapped += uint64(pages)
		}
		if touched {
			k.flush(ctx, as, opts.Flush)
		}
	}
	ctx.Trace.Emit(trace.KindSyscall, "SwapVA", start, ctx.Clock.Now()-start,
		uint64(pages), 0)
	return err
}

// SwapReq is one element of an aggregated SwapVA invocation.
type SwapReq struct {
	VA1, VA2 uint64
	Pages    int
	// Swapped is an out-parameter set by SwapVAVec: the pages actually
	// exchanged for this request. Requests are transactional, so it is
	// either 0 (not applied, or applied and rolled back) or Pages —
	// matching the syscall's per-request return-count semantics.
	Swapped int
}

// SwapVAVec performs many swaps under a single system-call entry and a
// single trailing TLB flush — the aggregation optimisation of Fig. 5(b).
// The whole vector is validated before anything is charged or applied, so
// a request that SwapVA would reject for free is also free here (the two
// entry points account identically). Valid requests are applied in order,
// each transactionally: a failure discovered mid-application (an unmapped
// page, an injected fault) rolls the failing request's PTEs back and
// aborts the call, leaving the preceding requests in effect. The returned
// total and the per-request Swapped fields report exactly which pages
// took effect, so callers can resume after the failing request. The
// trailing flush runs whenever any PTE was touched (even transiently
// before a rollback); when nothing was (an empty vector, only VA1 == VA2
// no-ops, or a first request that failed validation-free), it is skipped
// entirely — nothing was remapped, so broadcasting a shootdown would
// charge every core for nothing.
func (k *Kernel) SwapVAVec(ctx *machine.Context, as *mmu.AddressSpace,
	reqs []SwapReq, opts Options) (int, error) {

	for i := range reqs {
		reqs[i].Swapped = 0
		if err := checkArgs(reqs[i].VA1, reqs[i].VA2, reqs[i].Pages); err != nil {
			return 0, err
		}
	}
	start := ctx.Clock.Now()
	ctx.Clock.Advance(ctx.Cost.SyscallNs)
	ctx.Perf.Syscalls++
	ctx.Perf.SwapVACalls++
	applied := false
	total := 0
	var firstErr error
	for i := range reqs {
		r := &reqs[i]
		if r.VA1 == r.VA2 {
			continue
		}
		touched, err := k.applySwap(ctx, as, r.VA1, r.VA2, r.Pages, opts)
		applied = applied || touched
		if err != nil {
			firstErr = err
			break
		}
		r.Swapped = r.Pages
		total += r.Pages
		ctx.Perf.PagesSwapped += uint64(r.Pages)
	}
	if applied {
		k.flush(ctx, as, opts.Flush)
	}
	ctx.Trace.Emit(trace.KindSyscall, "SwapVAVec", start,
		ctx.Clock.Now()-start, uint64(len(reqs)), 0)
	return total, firstErr
}

// applySwap dispatches one validated, non-degenerate request to the
// overlap-aware or pairwise body and records the request-level event the
// swap-size histogram is built from. On failure the undo log is replayed,
// restoring the request's pre-call mapping. The returned touched flag
// reports whether any PTE changed even transiently — the caller's cue
// that a TLB flush is still required after a rollback.
func (k *Kernel) applySwap(ctx *machine.Context, as *mmu.AddressSpace,
	va1, va2 uint64, pages int, opts Options) (bool, error) {

	tx := &k.tx
	tx.reset()
	start := ctx.Clock.Now()
	var err error
	overlapTouched := false
	if opts.Overlap && rangesOverlap(va1, va2, pages) {
		err = k.swapOverlapBody(ctx, as, va1, va2, pages, opts, tx)
		if err != nil && errors.Is(err, ErrNotMapped) && k.M.SwapEnabled() {
			// The cycle-chasing rotation moves bare frames, so a slot that
			// lives in the swap tier (or is still demand-zero) aborts it. On
			// a swap-armed machine that is an expected page state, not a
			// caller bug: roll the attempt back and redo the request with
			// the pairwise body, which exchanges whole PTEs and handles
			// every residency combination at O(2n) cost. Sequential
			// pairwise order yields the identical final layout (see the
			// SwapVA doc comment), so callers cannot observe the dispatch.
			overlapTouched = len(tx.ops) > 0
			k.rollback(ctx, as, tx, va1)
			tx.reset()
			ctx.Trace.Emit(trace.KindFallback, "swap-overlap-pairwise",
				ctx.Clock.Now(), 0, uint64(pages), va1)
			err = k.swapBody(ctx, as, va1, va2, pages, opts, tx)
		}
	} else {
		err = k.swapBody(ctx, as, va1, va2, pages, opts, tx)
	}
	if err == nil {
		ctx.Trace.Emit(trace.KindSwapReq, "swap-req", start,
			ctx.Clock.Now()-start, uint64(pages), va1)
		return true, nil
	}
	touched := overlapTouched || len(tx.ops) > 0
	k.rollback(ctx, as, tx, va1)
	return touched, err
}

// swapBody is the PTE-exchange loop of Algorithm 1 (lines 12–18): for each
// page pair, resolve both PTEs (through per-range PMD caches), take the
// split page-table locks, and exchange the frames. With opts.HugeSwap,
// stretches where both cursors sit on 2 MiB boundaries with at least a
// full span remaining are exchanged as whole PMD entries instead.
func (k *Kernel) swapBody(ctx *machine.Context, as *mmu.AddressSpace,
	va1, va2 uint64, pages int, opts Options, tx *txn) error {

	const hugePages = int(mmu.PMDSpan >> mem.PageShift)
	var pc1, pc2 mmu.PMDCache
	for i := 0; i < pages; {
		off := uint64(i) << mem.PageShift
		a, b := va1+off, va2+off
		if err := fireTransient(ctx, a); err != nil {
			return err
		}
		if opts.HugeSwap && pages-i >= hugePages &&
			a%mmu.PMDSpan == 0 && b%mmu.PMDSpan == 0 {
			// One pointer swap relocates 512 pages: charge two walks to
			// the PMD level plus the locked exchange.
			t0 := ctx.Clock.Now()
			ctx.Clock.Advance(sim.Time(2*3*ctx.Cost.PTWalkLevelNs) +
				sim.Time(2*ctx.Cost.PTELockNs) + sim.Time(2*ctx.Cost.PTEUpdateNs))
			if err := as.SwapPMDEntries(a, b); err != nil {
				return err
			}
			tx.notePMD(a, b)
			ctx.Perf.PMDSwaps++
			ctx.Trace.Emit(trace.KindSwapPMD, "pmd-swap", t0,
				ctx.Clock.Now()-t0, a, b)
			pc1.Invalidate() // the cached tables moved
			pc2.Invalidate()
			i += hugePages
			continue
		}
		t0 := ctx.Clock.Now()
		pt1, idx1, err := k.getPTE(ctx, as, a, &pc1, opts.PMDCaching)
		if err != nil {
			return err
		}
		pt2, idx2, err := k.getPTE(ctx, as, b, &pc2, opts.PMDCaching)
		if err != nil {
			return err
		}
		if err := swapPTEs(ctx, pt1, idx1, pt2, idx2, a, b, tx); err != nil {
			return err
		}
		if ctx.Trace != nil {
			ctx.Trace.Emit(trace.KindSwapPage, "pte-swap", t0,
				ctx.Clock.Now()-t0, a, b)
		}
		i++
	}
	return nil
}

// swapPTEs exchanges two mapped PTEs under their (simulated) table
// locks. Either side may be resident, demand-zero, or swapped out — the
// exchange moves the full PTE struct, so every combination is correct.
func swapPTEs(ctx *machine.Context, pt1 *mmu.PTETable, idx1 int,
	pt2 *mmu.PTETable, idx2 int, va1, va2 uint64, tx *txn) error {

	stallPTELock(ctx, va1)
	ctx.Clock.Advance(2 * ctx.Cost.PTELockNs)
	lockStart := ctx.Clock.Now()
	recordLockWait(ctx, pt1, pt2)
	e1, e2 := pt1.Entry(idx1), pt2.Entry(idx2)
	if !e1.Mapped() {
		return notMapped(va1)
	}
	if !e2.Mapped() {
		return notMapped(va2)
	}
	if e1.State == mmu.SwapSlot || e2.State == mmu.SwapSlot {
		// A side that lives in the swap tier has its swap entry rewritten
		// on the backing device by the exchange — a write that can fail
		// transiently (the far_write fault site).
		if err := fireFarWrite(ctx, va1); err != nil {
			return err
		}
	}
	if err := checkPoison(ctx, e1.Frame, e2.Frame, va1, va2); err != nil {
		return err
	}
	// Exchange the whole PTE structs, not just the frames: swap state and
	// tier slot travel with the contents. Exchanging a resident PTE with
	// a swapped-out one therefore relocates the swapped page's identity
	// to the other VA — compaction doubling as demotion/prefetch policy —
	// with no special-casing anywhere downstream.
	*e1, *e2 = *e2, *e1
	tx.notePair(pt1, idx1, pt2, idx2)
	ctx.Clock.Advance(2 * ctx.Cost.PTEUpdateNs)
	if ctx.NUMAView != nil && e1.Present && e2.Present {
		// Frames on different nodes: each of the two dirty PTE stores
		// crosses the interconnect when made visible. Non-resident sides
		// have no frame to place.
		ctx.Clock.Advance(ctx.NUMAView.CrossNodeSwapNs(
			uint64(e1.Frame)<<mem.PageShift, uint64(e2.Frame)<<mem.PageShift))
	}
	markLockBusy(ctx, pt1, pt2)
	if ctx.Trace != nil {
		ctx.Trace.Emit(trace.KindPTELock, "pte-lock", lockStart,
			ctx.Clock.Now()-lockStart, pt1.ID(), pt2.ID())
	}
	return nil
}

// recordLockWait attributes PTE-lock queueing delay: if the most recent
// critical section on either table (per its busy-until mark) extends past
// the acquiring context's clock, the overhang is counted as time this
// acquisition would have queued. Purely observational — the clock is never
// advanced and no simulated outcome changes — which is what lets the
// counters stay armed in every configuration, including the zero-config
// golden runs. pt2 may be nil for single-table sites.
func recordLockWait(ctx *machine.Context, pt1, pt2 *mmu.PTETable) {
	until := pt1.BusyUntil()
	if pt2 != nil {
		if b := pt2.BusyUntil(); b > until {
			until = b
		}
	}
	if wait := until - int64(ctx.Clock.Now()); wait > 0 {
		ctx.Perf.PTELockWaits++
		ctx.Perf.PTELockWaitNs += uint64(wait)
		ctx.Trace.ObserveLockWait(sim.Time(wait))
	}
}

// markLockBusy records the end of a critical section on the tables so a
// later acquirer whose clock lags behind can attribute its queueing delay.
// pt2 may be nil for single-table sites.
func markLockBusy(ctx *machine.Context, pt1, pt2 *mmu.PTETable) {
	now := int64(ctx.Clock.Now())
	pt1.MarkBusyUntil(now)
	if pt2 != nil {
		pt2.MarkBusyUntil(now)
	}
}

// flush applies the trailing TLB-coherence step of the system call.
func (k *Kernel) flush(ctx *machine.Context, as *mmu.AddressSpace, p FlushPolicy) {
	switch p {
	case FlushBroadcast:
		ctx.ShootdownAll(as.ASID)
	case FlushLocalOnly:
		ctx.FlushLocal(as.ASID)
	case FlushNone:
	}
}

// Memmove copies n bytes from src to dst through the memory system — the
// byte-copy baseline SwapVA replaces. It has no system-call cost (it is
// user-space code) but pays full streaming traffic for the read and the
// write, subject to bus contention.
func (k *Kernel) Memmove(ctx *machine.Context, as *mmu.AddressSpace,
	dst, src uint64, n int) error {

	if n <= 0 {
		return nil
	}
	ctx.Perf.MemmoveCalls++
	ctx.Perf.BytesCopied += uint64(n)
	start := ctx.Clock.Now()
	err := as.Copy(&ctx.Env, dst, src, n)
	ctx.Trace.Emit(trace.KindBus, "memmove", start, ctx.Clock.Now()-start,
		uint64(n), 0)
	return err
}
