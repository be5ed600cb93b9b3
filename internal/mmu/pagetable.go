// Package mmu implements the simulated memory-management unit: x86-64
// style four-level page tables (the p4d level is folded, as on 4-level
// kernels), per-core TLBs, and address spaces whose loads and stores are
// translated and charged against the cost model. The kernel's SwapVA
// system call manipulates the PTEs defined here.
package mmu

import (
	"fmt"

	"repro/internal/mem"
)

// Page-table geometry (x86-64, 4 KiB pages, 9 bits per level).
const (
	entriesPerLevel = 512
	pteShift        = mem.PageShift // bits 12..20
	pmdShift        = pteShift + 9  // bits 21..29
	pudShift        = pmdShift + 9  // bits 30..38
	pgdShift        = pudShift + 9  // bits 39..47
	levelMask       = entriesPerLevel - 1

	// PMDSpan is the virtual span covered by one PTE table (one PMD
	// entry): 2 MiB. Pages within one span share the same PTE table,
	// which is what the PMD-caching optimisation exploits.
	PMDSpan = uint64(entriesPerLevel) * mem.PageSize

	// WalkLevels is the number of directory accesses in a full walk.
	WalkLevels = 4
)

// Swap states a non-present PTE can be in (PTE.State). SwapNone is the
// zero value: a PTE that is either resident (Present) or plain unmapped,
// exactly the two states that existed before the swap tier — so an
// address space that never swaps is bit-identical to the pre-swap
// simulator.
const (
	// SwapNone: resident or unmapped; Slot is meaningless.
	SwapNone uint8 = iota
	// SwapZero: mapped but never materialised (demand-zero). The first
	// touch zero-fills a fresh frame — no tier slot is consumed, the
	// same-filled-page optimisation zswap applies to all-zero pages.
	SwapZero
	// SwapSlot: swapped out; the page's bytes live in tier slot Slot.
	SwapSlot
)

// PTE is one page-table entry: the frame backing a virtual page, plus
// the swap-state machine the far-memory tier runs on. A page is in
// exactly one of: unmapped (!Present, State==SwapNone), resident
// (Present), demand-zero (State==SwapZero), or swapped (State==SwapSlot
// with the tier slot in Slot). Accessed is the clock-algorithm
// reference bit: the MMU sets it on page-table walks (TLB misses) when
// a swap tier is armed, and the reclaimer clears it to give resident
// pages a second chance before eviction.
type PTE struct {
	Frame    mem.FrameID
	Present  bool
	Accessed bool
	State    uint8
	Slot     uint32
}

// Mapped reports whether the PTE belongs to a live mapping in any
// state: resident, demand-zero, or swapped out.
func (e *PTE) Mapped() bool { return e.Present || e.State != SwapNone }

// PTETable is the last level of the tree: 512 PTEs covered by one split
// page-table lock in the modelled kernel (pte_offset_map_lock locks the
// page that holds the PTEs). The lock is simulated, not taken: the kernel
// charges each acquisition on the sim clock and records hold times in
// busyUntil.
type PTETable struct {
	id uint64
	// busyUntil is the simulated time at which the most recent critical
	// section on this table ends — the queueing-delay bookkeeping behind
	// sim.Perf's PTELockWaits. It is observational only: kernel lock paths
	// read it to attribute wait time but never advance a clock from it, so
	// arming or ignoring it cannot change any simulated outcome.
	busyUntil int64
	ptes      [entriesPerLevel]PTE
}

// ID returns the table's allocation ID, the identity the swap trace event
// records. IDs are unique per address space and travel with the table
// when SwapPMDEntries moves it, so they name a table even though its
// covering virtual range is not stable. They are handed out
// deterministically — the n'th table an address space creates always
// gets ID n — so traces replay bit-identically across processes and
// across machines within one process.
func (t *PTETable) ID() uint64 { return t.id }

// Entry returns a pointer to the idx'th PTE.
func (t *PTETable) Entry(idx int) *PTE { return &t.ptes[idx] }

// BusyUntil returns the simulated end time of the latest critical section
// recorded on this table (0 if none).
func (t *PTETable) BusyUntil() int64 { return t.busyUntil }

// MarkBusyUntil records that a critical section on this table ran until
// the given simulated time. Monotonic: an earlier end never overwrites a
// later one, so overlapping recorders keep the farthest horizon.
func (t *PTETable) MarkBusyUntil(end int64) { t.busyUntil = max(t.busyUntil, end) }

// pmd is one page middle directory; SwapPMDEntries exchanges two of its
// slots.
type pmd struct {
	tables [entriesPerLevel]*PTETable
}

type pud struct {
	pmds [entriesPerLevel]*pmd
}

type pgd struct {
	puds [entriesPerLevel]*pud
	// tableSeq hands out PTETable allocation IDs, starting at 1; per-space
	// numbering keeps the IDs replay-deterministic.
	tableSeq uint64
}

func pgdIndex(va uint64) int { return int(va>>pgdShift) & levelMask }
func pudIndex(va uint64) int { return int(va>>pudShift) & levelMask }
func pmdIndex(va uint64) int { return int(va>>pmdShift) & levelMask }

// PTEIndex returns the last-level index of va within its PTE table.
func PTEIndex(va uint64) int { return int(va>>pteShift) & levelMask }

// VPN returns the virtual page number of va.
func VPN(va uint64) uint64 { return va >> mem.PageShift }

// walk descends the tree to the PTE table covering va, optionally creating
// missing directories.
func (r *pgd) walk(va uint64, create bool) *PTETable {
	pu := r.puds[pgdIndex(va)]
	if pu == nil {
		if !create {
			return nil
		}
		pu = &pud{}
		r.puds[pgdIndex(va)] = pu
	}
	pm := pu.pmds[pudIndex(va)]
	if pm == nil {
		if !create {
			return nil
		}
		pm = &pmd{}
		pu.pmds[pudIndex(va)] = pm
	}
	pt := pm.tables[pmdIndex(va)]
	if pt == nil {
		if !create {
			return nil
		}
		r.tableSeq++
		pt = &PTETable{id: r.tableSeq}
		pm.tables[pmdIndex(va)] = pt
	}
	return pt
}

// PMDCache caches the PTE table resolved by the most recent walk, keyed by
// the 2 MiB-aligned prefix of the virtual address. Reusing it lets a bulk
// page operation skip the PGD/PUD/PMD levels for same-span neighbours —
// the paper's Fig. 7 optimisation. A PMDCache belongs to a single kernel
// invocation; it must not outlive mapping changes.
type PMDCache struct {
	tag   uint64
	table *PTETable
	valid bool
}

// Lookup returns the cached table for va if it covers va's 2 MiB span.
func (c *PMDCache) Lookup(va uint64) (*PTETable, bool) {
	if c.valid && va/PMDSpan == c.tag {
		return c.table, true
	}
	return nil, false
}

// Store remembers the table covering va.
func (c *PMDCache) Store(va uint64, t *PTETable) {
	c.tag = va / PMDSpan
	c.table = t
	c.valid = true
}

// Invalidate forgets the cached entry.
func (c *PMDCache) Invalidate() { c.valid = false }

func badVA(op string, va uint64) error {
	return fmt.Errorf("mmu: %s: unmapped virtual address %#x", op, va)
}
