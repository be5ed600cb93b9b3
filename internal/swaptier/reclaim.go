package swaptier

import (
	"errors"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// ErrFarWrite is the transient device failure of a far-tier write,
// produced when the far_write fault site fires. The reclaimer responds
// by leaving the page resident (it will be retried on a later pass);
// SwapVA responds by aborting and rolling back the transaction.
var ErrFarWrite = errors.New("swaptier: transient far-tier write failure")

// ReclaimContext carries what one reclaim activation charges and
// touches: the executing Env (the kswapd context's clock and counters
// for background reclaim, the faulting thread's for direct reclaim),
// the machine's fault injector, and the machine's shootdown entry point
// for invalidating stale translations of evicted pages.
type ReclaimContext struct {
	Env       *mmu.Env
	Fault     *fault.Injector
	Shootdown func(asid uint32)
}

// Reclaimer is the kswapd-style victim picker: a second-chance clock
// over each address space's resident pages. The MMU sets the Accessed
// bit on every page-table walk (TLB miss); the clock hand clears it on
// first encounter and evicts pages found cold on a later encounter, so
// the TLB-miss stream is the reference stream — pages hot enough to
// live in the TLB look cold to the clock, the classic kswapd
// approximation, which is fine because evicting them is never incorrect
// (the tier preserves contents), only a cost.
//
// Determinism: the clock hand advances in virtual-address order through
// a directory walk, all eviction decisions are pure functions
// of PTE state, and the single-owner machine runs an entire activation
// without interleaving other simulated work — so the same workload
// produces the identical eviction sequence, slot assignment, and cost
// stream at any host parallelism.
type Reclaimer struct {
	tier  *Tier
	phys  *mem.PhysMem
	hands map[uint32]uint64 // per-ASID clock hand: next VA to examine

	// Scratch for scanSpace, resliced to zero on every call so that an
	// activation allocates nothing once the slices have grown.
	tables  []tableRef
	evicted []mem.FrameID
}

// tableRef is one PTE table a scan visits, with the base VA of its span.
type tableRef struct {
	base uint64
	pt   *mmu.PTETable
}

// NewReclaimer builds the reclaimer over a tier and the frame pool.
func NewReclaimer(tier *Tier, phys *mem.PhysMem) *Reclaimer {
	return &Reclaimer{tier: tier, phys: phys, hands: make(map[uint32]uint64)}
}

// Reclaim demotes cold resident pages until target frames have been
// freed, the tier fills up, or two full clock passes find nothing
// evictable. spaces must be in a deterministic order (the machine
// passes them sorted by ASID). Returns the frames actually freed.
func (r *Reclaimer) Reclaim(rc ReclaimContext, spaces []*mmu.AddressSpace, target int) int {
	freed := 0
	// Two passes: the first clears Accessed bits (second chance), the
	// second evicts what stayed cold. A pass that frees nothing and
	// cannot store anything ends the activation.
	for pass := 0; pass < 2 && freed < target; pass++ {
		progress := false
		for _, as := range spaces {
			n, full := r.scanSpace(rc, as, target-freed)
			freed += n
			if n > 0 {
				progress = true
			}
			if full || freed >= target {
				return freed
			}
		}
		if !progress && pass > 0 {
			break
		}
	}
	return freed
}

// scanSpace runs the clock hand over one address space, evicting up to
// want cold pages. Returns pages freed and whether the tier filled up.
func (r *Reclaimer) scanSpace(rc ReclaimContext, as *mmu.AddressSpace, want int) (int, bool) {
	tables := r.tables[:0]
	as.ForEachTable(func(base uint64, pt *mmu.PTETable) bool {
		tables = append(tables, tableRef{base, pt})
		return true
	})
	r.tables = tables
	if len(tables) == 0 || want <= 0 {
		return 0, false
	}
	// Resume the clock hand: first table whose span reaches the hand VA.
	// A hand past every table wraps to the first one — without the wrap a
	// single-table space whose hand ran off the end would never be
	// scanned again and reclaim would starve.
	hand := r.hands[as.ASID]
	if hand >= tables[len(tables)-1].base+mmu.PMDSpan {
		hand = 0
	}
	start := 0
	for i, t := range tables {
		if t.base+mmu.PMDSpan > hand {
			start = i
			break
		}
	}
	var (
		evicted = r.evicted[:0]
		stored  uint64
		zeros   uint64
		full    bool
	)
	t0 := rc.Env.Clock.Now()
	// One full circular pass over the tables, starting at the hand. The
	// extra iteration (k == len(tables)) closes the circle: it revisits
	// the start table's entries *below* the hand, which k == 0 skipped.
	for k := 0; k <= len(tables) && len(evicted) < want && !full; k++ {
		t := tables[(start+k)%len(tables)]
		for idx := 0; idx < 512 && len(evicted) < want; idx++ {
			va := t.base + uint64(idx)<<mem.PageShift
			if k == 0 && va < hand {
				continue
			}
			if k == len(tables) && va >= hand {
				break
			}
			e := t.pt.Entry(idx)
			if !e.Present {
				continue
			}
			if e.Accessed {
				// Second chance: clear the reference bit and move on.
				e.Accessed = false
				continue
			}
			frame := e.Frame
			page := r.phys.View(frame)
			slot, zero, err := r.tier.pageOut(rc.Env, rc.Fault, page[:])
			if err != nil {
				if errors.Is(err, ErrFarWrite) {
					// Transient device failure: the page stays resident
					// and a later pass retries it.
					rc.Env.Perf.FaultsInjected++
					rc.Env.Trace.Emit(trace.KindFault, "fault:far-write",
						rc.Env.Clock.Now(), 0, uint64(trace.FaultFarWrite), va)
					continue
				}
				full = true
				break
			}
			if zero {
				*e = mmu.PTE{State: mmu.SwapZero}
				zeros++
			} else {
				*e = mmu.PTE{State: mmu.SwapSlot, Slot: slot}
				stored++
			}
			evicted = append(evicted, frame)
			r.hands[as.ASID] = va + mem.PageSize
		}
	}
	r.evicted = evicted
	if len(evicted) == 0 {
		return 0, full
	}
	// Invalidate stale translations before the frames can be reused,
	// then return them to the pool.
	rc.Shootdown(as.ASID)
	for _, f := range evicted {
		r.phys.FreeFrame(f)
	}
	rc.Env.Perf.SwapOutPages += stored
	rc.Env.Trace.Emit(trace.KindSwapOut, "swap:out",
		t0, rc.Env.Clock.Since(t0), stored, zeros)
	return len(evicted), full
}

// pageOut is PageOut with the far_write fault site armed: when the page
// would land on the far device and the injector fires, the write fails
// transiently and nothing is stored.
func (t *Tier) pageOut(env *mmu.Env, inj *fault.Injector, page []byte) (uint32, bool, error) {
	if inj.Enabled(trace.FaultFarWrite) && t.wouldGoFar(page) && inj.Fire(trace.FaultFarWrite) {
		return 0, false, ErrFarWrite
	}
	return t.PageOut(env, page)
}

// wouldGoFar reports whether storing page now would place it on the far
// device (the zpool budget can't take its compressed size).
func (t *Tier) wouldGoFar(page []byte) bool {
	cs := csizeOf(page)
	if cs == compressedHeaderBytes {
		return false // all-zero pages are discarded, not stored
	}
	return !(t.cfg.ZpoolBytes > 0 && t.zpUsed+int64(cs) <= t.cfg.ZpoolBytes) &&
		t.cfg.FarBytes > 0
}
