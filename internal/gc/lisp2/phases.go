package lisp2

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/trace"
)

// markPhase (Phase I) traces from the roots (plus the reference slots of
// the remembered-set holders) and sets the mark bit of every reachable
// object in [from, top). With work stealing, object scans are attributed
// round-robin across workers; without it, each worker traces the subgraph
// of its static share of the roots.
func (c *Collector) markPhase(pool *gc.Pool, from, top uint64,
	holders []heap.Object) (liveBytes, liveObjects uint64, err error) {

	inRange := func(o heap.Object) bool {
		return o != 0 && o.VA() >= from && o.VA() < top
	}

	// Scratch for whole-object reference scans: each scan is one declared
	// dense run over the ref slots (batched settlement), reusing this
	// buffer so tracing stays allocation-free.
	var refBuf []heap.Object
	refs := func(w *machine.Context, o heap.Object, n int) ([]heap.Object, error) {
		if cap(refBuf) < n {
			refBuf = make([]heap.Object, n)
		}
		refBuf = refBuf[:n]
		err := c.H.Refs(w, o, refBuf)
		return refBuf, err
	}

	var rootObjs []heap.Object
	for _, r := range c.Roots.Snapshot() {
		if inRange(r.Obj) {
			rootObjs = append(rootObjs, r.Obj)
		}
	}
	if len(holders) > 0 {
		// The remembered-set scan is the minor-collection-specific slice of
		// marking; record it as its own sub-phase so generational pause
		// attribution can separate card work from tracing.
		scanStart := pool.MaxNow()
		for _, holder := range holders {
			w := pool.Next()
			meta, err := c.H.ReadMeta(w, holder)
			if err != nil {
				return 0, 0, err
			}
			rs, err := refs(w, holder, meta.NumRefs)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rs {
				if inRange(r) {
					rootObjs = append(rootObjs, r)
				}
			}
		}
		pool.Workers[0].Trace.Emit(trace.KindPhase, "remset-scan", scanStart,
			pool.MaxNow()-scanStart, uint64(len(holders)), 0)
	}

	trace := func(worker func() *machine.Context, stack []heap.Object) error {
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			w := worker()
			hd, err := c.H.ReadHeader(w, o)
			if err != nil {
				return err
			}
			if hd.Marked || hd.Filler {
				continue
			}
			if err := c.H.SetMark(w, o, true); err != nil {
				return err
			}
			liveBytes += uint64(hd.Size)
			liveObjects++
			meta, err := c.H.ReadMeta(w, o)
			if err != nil {
				return err
			}
			rs, err := refs(w, o, meta.NumRefs)
			if err != nil {
				return err
			}
			for _, r := range rs {
				if inRange(r) {
					stack = append(stack, r)
				}
			}
		}
		return nil
	}

	if c.cfg.WorkStealing {
		err := trace(pool.Next, rootObjs)
		return liveBytes, liveObjects, err
	}
	// Static partition: worker i traces from its root share only.
	n := pool.Size()
	for i := 0; i < n; i++ {
		chunk := rootObjs[i*len(rootObjs)/n : (i+1)*len(rootObjs)/n]
		if len(chunk) == 0 {
			continue
		}
		w := pool.Worker(i)
		if err := trace(func() *machine.Context { return w }, append([]heap.Object(nil), chunk...)); err != nil {
			return 0, 0, err
		}
	}
	return liveBytes, liveObjects, nil
}

// forwardPhase (Phase II) walks [from, top) in address order and assigns
// each live object its post-compaction address, page-aligning swappable
// objects per Algorithm 3's CalcNewAdd. It returns the new allocation
// frontier and the number of swappable objects that will actually move —
// the signal the compaction phase uses to decide whether Algorithm 4's
// pinning pays off. The walk is attributed round-robin (the paper
// parallelises this phase per-region with prefix sums).
func (c *Collector) forwardPhase(pool *gc.Pool, from, top uint64) (newTop uint64, swapMoves int, err error) {
	compPnt := from
	cur := from
	for cur < top {
		w := pool.Next()
		o := heap.Object(cur)
		hd, err := c.H.ReadHeader(w, o)
		if err != nil {
			return 0, 0, err
		}
		if hd.Size < heap.MinFillerBytes || cur+uint64(hd.Size) > top {
			return 0, 0, fmt.Errorf("corrupt heap at %#x: size %d", cur, hd.Size)
		}
		if !hd.Filler && hd.Marked {
			compPnt = c.cfg.Policy.IfSwapAlign(hd.Size, compPnt)
			if err := c.H.SetForward(w, o, heap.Object(compPnt)); err != nil {
				return 0, 0, err
			}
			if compPnt != cur && c.mv.Swaps(hd.Size, cur, compPnt) {
				swapMoves++
			}
			compPnt += uint64(hd.Size)
			compPnt = c.cfg.Policy.IfSwapAlign(hd.Size, compPnt)
		}
		cur += uint64(hd.Size)
	}
	return compPnt, swapMoves, nil
}

// adjustPhase (Phase III) rewrites every reference: slots inside live
// range objects, the root set, and the remembered-set holders' slots.
// References below from (into the immortal prefix) are left unchanged.
func (c *Collector) adjustPhase(pool *gc.Pool, from, top uint64, holders []heap.Object) error {
	inRange := func(o heap.Object) bool {
		return o != 0 && o.VA() >= from && o.VA() < top
	}

	fixSlots := func(w *machine.Context, o heap.Object) error {
		meta, err := c.H.ReadMeta(w, o)
		if err != nil {
			return err
		}
		for i := 0; i < meta.NumRefs; i++ {
			r, err := c.H.Ref(w, o, i)
			if err != nil {
				return err
			}
			if !inRange(r) {
				continue
			}
			fwd, err := c.H.Forward(w, r)
			if err != nil {
				return err
			}
			// Write directly, bypassing the mutator write barrier: GC
			// adjustment must not grow the remembered set.
			if err := c.H.AS.WriteWord(&w.Env, o.RefSlotVA(i), fwd.VA()); err != nil {
				return err
			}
		}
		return nil
	}

	cur := from
	for cur < top {
		w := pool.Next()
		o := heap.Object(cur)
		hd, err := c.H.ReadHeader(w, o)
		if err != nil {
			return err
		}
		if !hd.Filler && hd.Marked {
			if err := fixSlots(w, o); err != nil {
				return err
			}
		}
		cur += uint64(hd.Size)
	}
	for _, holder := range holders {
		if err := fixSlots(pool.Next(), holder); err != nil {
			return err
		}
	}
	for _, r := range c.Roots.Snapshot() {
		if !inRange(r.Obj) {
			continue
		}
		w := pool.Next()
		fwd, err := c.H.Forward(w, r.Obj)
		if err != nil {
			return err
		}
		r.Obj = fwd
	}
	return nil
}

// swapQueue accumulates SwapVA requests for the aggregation optimisation.
// The queue must be flushed before any memory write (filler or memmove)
// that could land inside a queued source range.
type swapQueue struct {
	mv   *core.Mover
	opts kernel.Options
	max  int
	reqs []kernel.SwapReq
}

func (q *swapQueue) add(w *machine.Context, dest, src uint64, pages int) error {
	q.reqs = append(q.reqs, kernel.SwapReq{VA1: dest, VA2: src, Pages: pages})
	if len(q.reqs) >= q.max {
		return q.flush(w)
	}
	return nil
}

func (q *swapQueue) flush(w *machine.Context) error {
	if len(q.reqs) == 0 {
		return nil
	}
	err := q.mv.SwapVec(w, q.reqs, q.opts)
	q.reqs = q.reqs[:0]
	return err
}

// compactPhase (Phase IV) slides live objects to their forwarding
// addresses in address order. Swappable objects move by SwapVA (optionally
// aggregated); the rest move by memmove. Alignment gaps in the new layout
// are plugged with fillers so the heap stays walkable.
//
// Pinned mode (Algorithm 4) engages when there are swappable moves: one
// worker is pinned and becomes the sole mover. All TLB flushes during the
// phase are then local to that core, bracketed by one all-core shootdown
// at the start (so every core drops translations the swaps are about to
// invalidate) and one at the end (so the next phase's workers never read
// through entries cached during this walk). The other workers still share
// the walk's reads and per-object header clears — safe, because the walk
// only ever reads addresses at or above the current cursor, which no swap
// has touched yet — but every write that could land in a remapped region
// (queue flushes, memmoves, fillers) goes through the pinned core, whose
// TLB the local flushes keep coherent. IPI broadcasts per collection thus
// drop from one per swappable object to two (Eq. 2's l·c -> c, times two
// for the closing flush).
func (c *Collector) compactPhase(pool *gc.Pool, from, top uint64, swapMoves int) error {
	nWorkers := c.cfg.compactWorkers()
	if nWorkers > pool.Size() {
		nWorkers = pool.Size()
	}
	swapOpts := c.cfg.Policy.Swap
	pinned := c.cfg.PinnedCompaction && c.cfg.Policy.UseSwapVA && swapMoves > 0
	mover := pool.Worker(0)
	if pinned {
		mover.Pin()
		mover.ShootdownAll(c.H.AS.ASID)
		swapOpts.Flush = kernel.FlushLocalOnly
	}
	rr := 0
	next := func() *machine.Context {
		w := pool.Worker(rr)
		rr = (rr + 1) % nWorkers
		return w
	}
	// write returns the context that must perform memory writes into
	// possibly-remapped regions: the pinned mover, or (unpinned) any
	// worker, since broadcast flushes keep every TLB coherent.
	write := func(w *machine.Context) *machine.Context {
		if pinned {
			return mover
		}
		return w
	}
	queue := &swapQueue{mv: &c.mv, opts: swapOpts, max: aggregateBatch}

	cursor := from
	cur := from
	for cur < top {
		w := next()
		o := heap.Object(cur)
		hd, err := c.H.ReadHeader(w, o)
		if err != nil {
			return err
		}
		size := hd.Size
		if hd.Filler || !hd.Marked {
			cur += uint64(size)
			continue
		}
		fwd, err := c.H.Forward(w, o)
		if err != nil {
			return err
		}
		dest := fwd.VA()
		if dest < cursor || dest > cur {
			return fmt.Errorf("compact: object %#x has non-sliding forward %#x (cursor %#x)", cur, dest, cursor)
		}

		// Plug the gap below this object's new location. The queue must
		// drain first: a pending swap's source range may cover the gap.
		if gap := int(dest - cursor); gap > 0 {
			if err := queue.flush(write(w)); err != nil {
				return err
			}
			if err := c.H.WriteFiller(write(w), cursor, gap); err != nil {
				return err
			}
		}

		// Clear mark + forwarding at the source so the relocated header
		// arrives clean whichever way it travels.
		if err := c.H.ClearGCBits(w, o, size); err != nil {
			return err
		}

		movedBySwap := false
		switch {
		case dest == cur:
			// In place; nothing moves.
		case c.mv.Swaps(size, cur, dest):
			movedBySwap = true
			pages := core.PagesFor(size)
			if c.cfg.Aggregate {
				if err := queue.add(write(w), dest, cur, pages); err != nil {
					return err
				}
			} else if err := c.mv.Swap(write(w), dest, cur, pages, swapOpts); err != nil {
				return err
			}
		default:
			if err := queue.flush(write(w)); err != nil {
				return err
			}
			if err := c.H.K.Memmove(write(w), c.H.AS, dest, cur, size); err != nil {
				return err
			}
		}

		cursor = dest + uint64(size)
		if c.cfg.Policy.Swappable(size) {
			// The policy decides the post-object alignment (page, or PMD
			// span for huge objects).
			aligned := c.cfg.Policy.IfSwapAlign(size, cursor)
			if trail := int(aligned - cursor); trail > 0 {
				// A swap brings the source's trailing filler along; for
				// in-place objects the filler is already there. Only a
				// memmoved swappable object needs an explicit filler.
				if !movedBySwap && dest != cur {
					if err := c.H.WriteFiller(write(w), cursor, trail); err != nil {
						return err
					}
				}
			}
			cursor = aligned
			// Skip the source's trailing remainder structurally: a swap
			// replaces those bytes with relocated garbage, so the
			// old-layout walk must not try to parse the filler that used
			// to live there. Every swappable object is aligned with its
			// remainder filled, so the next header sits on the next
			// alignment boundary.
			cur = c.cfg.Policy.IfSwapAlign(size, cur+uint64(size))
			continue
		}
		cur += uint64(size)
	}
	if err := queue.flush(mover); err != nil {
		return err
	}
	if pinned {
		mover.ShootdownAll(c.H.AS.ASID)
		mover.Unpin()
	}
	return nil
}
