package kernel

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// swapOverlapBody implements the paper's Algorithm 2: swapping two
// overlapping page ranges via cycle chasing. It rotates the combined
// (p+δ)-page region left by δ in gcd(δ, p) cycles using one temporary PTE
// per cycle, for O(p+δ) PTE moves instead of the O(2p) of pairwise
// swapping. After the rotation, [va1, va1+p pages) holds the former
// contents of [va2, va2+p pages) — the property compaction relies on —
// and the δ displaced pages occupy the tail of the region in rotation
// order (see Options.Overlap for how this relates to the pairwise order).
//
// The combined region [min(va1,va2), max(va1,va2)+p pages) must be fully
// mapped AND resident: the cycle-chasing rotation moves bare frames, so a
// swapped-out or demand-zero slot fails with ErrNotMapped, the request
// rolls back, and the caller degrades to the pairwise or byte-copy path
// (which fault pages in as needed). TLB coherence follows the caller's
// flush policy, plus optional per-slot invlpg flushes (Options.PerPageFlush).
func (k *Kernel) swapOverlapBody(ctx *machine.Context, as *mmu.AddressSpace,
	va1, va2 uint64, pages int, opts Options, tx *txn) error {

	if va1 > va2 {
		va1, va2 = va2, va1 // pairwise swapping is symmetric in its operands
	}
	d := int((va2 - va1) >> mem.PageShift) // addIdx2 in Algorithm 2
	if d == 0 {
		return nil
	}
	// The combined region has pages+d slots; findSwapPlace encodes the
	// (i-d) mod (pages+d) arithmetic. gcd(d, pages) == gcd(d, pages+d)
	// cycles cover every slot exactly once.
	g := gcd(d, pages)

	var pc mmu.PMDCache
	for cur := 0; cur < g; cur++ {
		frameTemp, err := k.loadFrame(ctx, as, va1, cur, &pc, opts)
		if err != nil {
			return err
		}
		for idx := findSwapPlace(cur, d, pages); idx != cur; idx = findSwapPlace(idx, d, pages) {
			frameTemp, err = k.exchangeFrame(ctx, as, va1, idx, frameTemp, &pc, opts, tx)
			if err != nil {
				return err
			}
		}
		if _, err := k.exchangeFrame(ctx, as, va1, cur, frameTemp, &pc, opts, tx); err != nil {
			return err
		}
	}
	return nil
}

// findSwapPlace computes (i-δ) mod (pages+δ) without a modulo, exactly as
// in the paper: the slot that receives the value currently at slot i.
func findSwapPlace(i, d, pages int) int {
	if i < d {
		return i + pages
	}
	return i - d
}

// loadFrame reads the frame of slot idx (relative to base) under its
// (simulated) PTE lock.
func (k *Kernel) loadFrame(ctx *machine.Context, as *mmu.AddressSpace,
	base uint64, idx int, pc *mmu.PMDCache, opts Options) (mem.FrameID, error) {

	va := base + uint64(idx)<<mem.PageShift
	pt, i, err := k.getPTE(ctx, as, va, pc, opts.PMDCaching)
	if err != nil {
		return mem.NilFrame, err
	}
	stallPTELock(ctx, va)
	ctx.Clock.Advance(ctx.Cost.PTELockNs)
	recordLockWait(ctx, pt, nil)
	e := pt.Entry(i)
	if !e.Present {
		return mem.NilFrame, notMapped(va)
	}
	markLockBusy(ctx, pt, nil)
	return e.Frame, nil
}

// exchangeFrame stores frame into slot idx and returns the slot's previous
// frame, flushing the slot's translation on the local core (invlpg).
func (k *Kernel) exchangeFrame(ctx *machine.Context, as *mmu.AddressSpace,
	base uint64, idx int, frame mem.FrameID, pc *mmu.PMDCache, opts Options,
	tx *txn) (mem.FrameID, error) {

	va := base + uint64(idx)<<mem.PageShift
	if err := fireTransient(ctx, va); err != nil {
		return mem.NilFrame, err
	}
	pt, i, err := k.getPTE(ctx, as, va, pc, opts.PMDCaching)
	if err != nil {
		return mem.NilFrame, err
	}
	stallPTELock(ctx, va)
	ctx.Clock.Advance(ctx.Cost.PTELockNs)
	recordLockWait(ctx, pt, nil)
	e := pt.Entry(i)
	if !e.Present {
		return mem.NilFrame, notMapped(va)
	}
	prev := e.Frame
	if err := checkPoison(ctx, frame, prev, va, va); err != nil {
		return mem.NilFrame, err
	}
	e.Frame = frame
	tx.noteSlot(pt, i, prev)
	ctx.Clock.Advance(ctx.Cost.PTEUpdateNs)
	if ctx.NUMAView != nil {
		ctx.Clock.Advance(ctx.NUMAView.CrossNodeStoreNs(
			uint64(frame)<<mem.PageShift, uint64(prev)<<mem.PageShift))
	}
	markLockBusy(ctx, pt, nil)
	if opts.PerPageFlush {
		ctx.FlushPageLocal(as.ASID, mmu.VPN(va))
	}
	return prev, nil
}

func notMapped(va uint64) error {
	return &VAError{VA: va, Err: ErrNotMapped}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
