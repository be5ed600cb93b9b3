package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/topology"
)

// AddressSpace is one simulated process address space: an ASID, a page
// table, and a simple bump region allocator for mmap-style reservations.
// Loads and stores go through Translate and are charged to the caller's
// Env; the kernel layer manipulates PTEs directly via PTETableFor.
type AddressSpace struct {
	ASID uint32
	Phys *mem.PhysMem

	root        pgd
	vaNext      uint64
	mappedPages int

	place     Placement
	placeNext int // interleave cursor

	// swapper, when non-nil, arms the far-memory plane: Map creates
	// demand-zero PTEs instead of allocating frames eagerly, and
	// translation faults non-resident pages in through it. Installed
	// once at address-space creation, before any mapping exists.
	swapper Swapper

	// acct, when non-nil, charges mapped pages to a tenant-style quota
	// before any frame is allocated. Installed once at address-space
	// creation, before any mapping exists.
	acct Accounter

	// bounce is Copy's scratch page for a segment that is not resident
	// on both sides, allocated on first use.
	bounce *[mem.PageSize]byte
}

// Accounter is the per-tenant charge hook (mem.Tenant wired up by the
// machine layer). mmu stays policy-free: Map charges the page count
// up front — a refusal fails the mapping before any physical frame is
// touched — and Unmap uncharges what it actually removed.
type Accounter interface {
	// ChargePages admits n more mapped pages or fails with a structured
	// over-quota error.
	ChargePages(n int) error
	// UnchargePages returns n pages to the quota.
	UnchargePages(n int)
}

// SetAccounter arms per-tenant charge accounting. Must be called before
// any mapping is created; a nil accounter (the default) keeps the address
// space bit-identical to the unaccounted simulator.
func (as *AddressSpace) SetAccounter(a Accounter) {
	as.acct = a
}

// Swapper is the far-memory backend an address space faults through
// when a swap tier is armed (internal/swaptier wired up by the machine
// layer). mmu stays policy-free: it only knows how to ask for a page to
// be materialised and how to reach a slot's bytes for uncharged
// host-side access.
type Swapper interface {
	// PageIn materialises the non-resident page at va — allocating a
	// frame, reading the tier slot or zero-filling, and updating the PTE
	// to resident — charging env for the fault. ok=false means the VA is
	// not a mapped page at all (the caller reports the usual fault).
	PageIn(env *Env, as *AddressSpace, va uint64) (f mem.FrameID, ok bool, err error)
	// FreeSlot releases a tier slot whose page was unmapped or discarded.
	FreeSlot(slot uint32)
	// ReadSlot copies len(p) bytes at off within the slot's page into p,
	// uncharged (verification and raw plumbing).
	ReadSlot(slot uint32, off int, p []byte)
	// WriteSlot copies p over the slot's page at off, uncharged.
	WriteSlot(slot uint32, off int, p []byte)
	// AdmitPage stores a full page of bytes into the tier uncharged and
	// returns its new slot; ok=false when the tier is out of capacity.
	AdmitPage(p []byte) (slot uint32, ok bool)
}

// SetSwapper arms the far-memory plane. Must be called before any
// mapping is created; a nil swapper (the default) keeps the address
// space bit-identical to the pre-swap simulator.
func (as *AddressSpace) SetSwapper(s Swapper) {
	as.swapper = s
}

// Swapped reports whether a swap tier is armed on this address space.
func (as *AddressSpace) Swapped() bool {
	return as.swapper != nil
}

// Placement selects the NUMA node backing freshly mapped pages. The zero
// value (first-touch on node 0 of a one-node pool) reproduces the flat
// machine's allocation exactly.
type Placement struct {
	// Policy is the page-placement policy.
	Policy topology.Policy
	// Home is the node first-touch placement targets — the node of the
	// context that maps the region (the simulator maps eagerly, so the
	// mapper stands in for the first toucher).
	Home int
	// Bind is the target node of PolicyBind.
	Bind int
	// Nodes is the node count PolicyInterleave cycles over (>= 1).
	Nodes int
}

// SetPlacement installs the placement policy for subsequent Map calls.
func (as *AddressSpace) SetPlacement(p Placement) {
	if p.Nodes < 1 {
		p.Nodes = 1
	}
	as.place = p
	as.placeNext = 0
}

// SetHome retargets first-touch placement at the given node, keeping the
// rest of the policy; callers set it before mapping a region on behalf of
// a thread with a known socket.
func (as *AddressSpace) SetHome(node int) {
	as.place.Home = node
}

// Placement returns the active placement policy.
func (as *AddressSpace) Placement() Placement {
	return as.place
}

// placeNode picks the node for the next mapped page.
func (as *AddressSpace) placeNode() int {
	switch as.place.Policy {
	case topology.PolicyInterleave:
		n := as.place.Nodes
		if n < 1 {
			n = 1
		}
		node := as.placeNext % n
		as.placeNext++
		return node
	case topology.PolicyBind:
		return as.place.Bind
	default: // first-touch
		return as.place.Home
	}
}

// PlaceNextNode picks the NUMA node for the next demand-faulted page —
// the fault-time analogue of the placement decision Map makes at
// populate time. Interleaved spaces advance the same cursor, so a space
// materialised lazily by faults spreads across nodes exactly like one
// populated eagerly.
func (as *AddressSpace) PlaceNextNode() int {
	return as.placeNode()
}

// MmapBase is where region allocation starts; it leaves page 0 and the
// low canonical range unmapped so nil-like VAs fault loudly.
const MmapBase = uint64(0x10_0000_0000)

// NewAddressSpace creates an empty address space over phys.
func NewAddressSpace(asid uint32, phys *mem.PhysMem) *AddressSpace {
	return &AddressSpace{ASID: asid, Phys: phys, vaNext: MmapBase}
}

// Map backs [va, va+pages*PageSize) with freshly allocated zeroed frames
// — or, when a swap tier is armed, with demand-zero PTEs that consume no
// physical memory until first touch (so a heap larger than RAM maps for
// free and materialises page by page under the reclaimer's control).
// va must be page-aligned and the range must be currently unmapped.
func (as *AddressSpace) Map(va uint64, pages int) error {
	if va&mem.PageMask != 0 {
		return fmt.Errorf("mmu: Map: va %#x not page-aligned", va)
	}
	// Tenant quota gate: the whole range is charged before any frame is
	// allocated, so an over-cap tenant is refused without disturbing the
	// machine-wide allocator. The rollback paths below uncharge through
	// Unmap for the pages already mapped, plus the remainder here.
	if as.acct != nil {
		if err := as.acct.ChargePages(pages); err != nil {
			return err
		}
	}
	for i := 0; i < pages; i++ {
		addr := va + uint64(i)<<mem.PageShift
		pt := as.root.walk(addr, true)
		e := pt.Entry(PTEIndex(addr))
		if e.Mapped() {
			// Roll back this call's mappings before failing.
			as.Unmap(va, i, true)
			if as.acct != nil {
				as.acct.UnchargePages(pages - i)
			}
			return fmt.Errorf("mmu: Map: va %#x already mapped", addr)
		}
		if as.swapper != nil {
			e.Frame = mem.NilFrame
			e.State = SwapZero
			continue
		}
		f, err := as.Phys.AllocFrameOn(as.placeNode())
		if err != nil {
			as.Unmap(va, i, true)
			if as.acct != nil {
				as.acct.UnchargePages(pages - i)
			}
			return err
		}
		e.Frame = f
		e.Present = true
	}
	as.mappedPages += pages
	return nil
}

// MapRegion reserves and maps a fresh region of the given page count,
// returning its base VA. An extra unmapped guard page is left between
// regions so out-of-bounds accesses fault.
func (as *AddressSpace) MapRegion(pages int) (uint64, error) {
	va := as.vaNext
	as.vaNext += uint64(pages+1) << mem.PageShift
	if err := as.Map(va, pages); err != nil {
		return 0, err
	}
	return va, nil
}

// Unmap removes the mappings for [va, va+pages*PageSize); when freeFrames
// is true the backing frames are returned to physical memory.
func (as *AddressSpace) Unmap(va uint64, pages int, freeFrames bool) {
	unmapped := 0
	for i := 0; i < pages; i++ {
		addr := va + uint64(i)<<mem.PageShift
		pt := as.root.walk(addr, false)
		if pt == nil {
			continue
		}
		e := pt.Entry(PTEIndex(addr))
		if !e.Mapped() {
			continue
		}
		f, present := e.Frame, e.Present
		slot, state := e.Slot, e.State
		*e = PTE{Frame: mem.NilFrame}
		if present && freeFrames {
			as.Phys.FreeFrame(f)
		}
		if state == SwapSlot {
			as.swapper.FreeSlot(slot)
		}
		as.mappedPages--
		unmapped++
	}
	if as.acct != nil && unmapped > 0 {
		as.acct.UnchargePages(unmapped)
	}
}

// MappedPages reports how many pages are currently mapped.
func (as *AddressSpace) MappedPages() int {
	return as.mappedPages
}

// PTETableFor returns the PTE table and index covering va without charging
// any cost — the kernel charges walks itself via its PMD cache. It errors
// if no table exists.
func (as *AddressSpace) PTETableFor(va uint64) (*PTETable, int, error) {
	pt := as.root.walk(va, false)
	if pt == nil {
		return nil, 0, badVA("PTETableFor", va)
	}
	return pt, PTEIndex(va), nil
}

// SwapPMDEntries exchanges the two page-table (PMD) entries covering va1
// and va2 — relocating 512 pages (2 MiB) in one pointer swap, the
// huge-swap extension of SwapVA. Both addresses must be 2 MiB aligned and
// their PMD entries present. The caller is responsible for TLB coherence,
// exactly as with PTE swaps.
func (as *AddressSpace) SwapPMDEntries(va1, va2 uint64) error {
	if va1%PMDSpan != 0 || va2%PMDSpan != 0 {
		return fmt.Errorf("mmu: SwapPMDEntries: %#x/%#x not 2MiB-aligned", va1, va2)
	}
	s1, err := as.pmdSlot(va1)
	if err != nil {
		return err
	}
	s2, err := as.pmdSlot(va2)
	if err != nil {
		return err
	}
	*s1, *s2 = *s2, *s1
	return nil
}

// pmdSlot returns the PMD entry (the *PTETable slot) covering va.
func (as *AddressSpace) pmdSlot(va uint64) (**PTETable, error) {
	pu := as.root.puds[pgdIndex(va)]
	if pu == nil {
		return nil, badVA("pmdSlot", va)
	}
	pm := pu.pmds[pudIndex(va)]
	if pm == nil {
		return nil, badVA("pmdSlot", va)
	}
	slot := &pm.tables[pmdIndex(va)]
	if *slot == nil {
		return nil, badVA("pmdSlot", va)
	}
	return slot, nil
}

// Lookup resolves va to a frame without charging or touching the TLB.
func (as *AddressSpace) Lookup(va uint64) (mem.FrameID, bool) {
	pt := as.root.walk(va, false)
	if pt == nil {
		return mem.NilFrame, false
	}
	e := pt.Entry(PTEIndex(va))
	if !e.Present {
		return mem.NilFrame, false
	}
	return e.Frame, true
}

// Translate resolves va through the Env's TLB (charging a hit or a full
// walk) and returns the physical address.
func (as *AddressSpace) Translate(env *Env, va uint64) (uint64, error) {
	f, err := as.translatePage(env, va)
	if err != nil {
		return 0, err
	}
	return uint64(f)<<mem.PageShift | va&mem.PageMask, nil
}

func (as *AddressSpace) translatePage(env *Env, va uint64) (mem.FrameID, error) {
	env.Perf.TLBLookups++
	if f, ok := env.TLB.Lookup(as.ASID, VPN(va)); ok {
		env.Clock.AdvanceTicks(env.Q.TLBHit)
		return f, nil
	}
	return as.walk(env, va)
}

// walk is the TLB-miss half of a translation, after the caller counted
// the lookup: it charges a full page-table walk, faults a non-resident
// page in through the swapper, and fills the TLB. The hit half stays
// inline at each caller, which folds the hit's charge into its own
// clock add.
func (as *AddressSpace) walk(env *Env, va uint64) (mem.FrameID, error) {
	env.Perf.TLBMisses++
	env.Perf.PTWalks++
	env.Clock.AdvanceTicks(env.Q.Walk)
	f, ok := as.Lookup(va)
	if !ok && as.swapper != nil {
		// Demand fault: a mapped-but-non-resident page (demand-zero or
		// swapped out) is materialised by the swapper, which charges the
		// fault and the tier read-in to this Env.
		var err error
		f, ok, err = as.swapper.PageIn(env, as, va)
		if err != nil {
			return mem.NilFrame, err
		}
	}
	if !ok {
		return mem.NilFrame, badVA("translate", va)
	}
	if as.swapper != nil {
		as.markAccessed(va)
	}
	env.TLB.Insert(as.ASID, VPN(va), f)
	return f, nil
}

// markAccessed sets the clock-algorithm reference bit on va's PTE. Only
// called with a swap tier armed, on the TLB-miss (page-table walk) path
// — the same visibility real hardware gives the Accessed bit.
func (as *AddressSpace) markAccessed(va uint64) {
	if pt := as.root.walk(va, false); pt != nil {
		pt.Entry(PTEIndex(va)).Accessed = true
	}
}

// wordAccess charges one latency-bound word access at va — the
// translation, then the LLC — and returns the physical address. It is
// Translate followed by chargeWordAccess, fused: a TLB hit whose line
// hits the LLC settles both charges with one clock add. On an LLC miss
// the TLB hit's add lands before the miss reads any latency.
func (as *AddressSpace) wordAccess(env *Env, va uint64, write bool) (uint64, error) {
	env.Perf.TLBLookups++
	tlb := env.Q.TLBHit
	f, ok := env.TLB.Lookup(as.ASID, VPN(va))
	if !ok {
		var err error
		if f, err = as.walk(env, va); err != nil {
			return 0, err
		}
		tlb = 0 // the walk charged itself
	}
	pa := uint64(f)<<mem.PageShift | va&mem.PageMask
	env.Perf.CacheRefs++
	if env.Cache != nil && env.Cache.Access(pa) {
		env.Clock.AdvanceTicks(tlb + env.Q.CacheHit)
		return pa, nil
	}
	env.Clock.AdvanceTicks(tlb)
	env.chargeWordMiss(pa, write)
	return pa, nil
}

// ReadWord performs one charged 8-byte load. va must not cross a page.
func (as *AddressSpace) ReadWord(env *Env, va uint64) (uint64, error) {
	pa, err := as.wordAccess(env, va, false)
	if err != nil {
		return 0, err
	}
	env.Perf.BytesRead += 8
	f := as.Phys.Frame(mem.FrameID(pa >> mem.PageShift))
	off := pa & mem.PageMask
	return binary.LittleEndian.Uint64(f[off : off+8]), nil
}

// WriteWord performs one charged 8-byte store. va must not cross a page.
func (as *AddressSpace) WriteWord(env *Env, va uint64, val uint64) error {
	pa, err := as.wordAccess(env, va, true)
	if err != nil {
		return err
	}
	env.Perf.BytesWrite += 8
	f := as.Phys.Frame(mem.FrameID(pa >> mem.PageShift))
	off := pa & mem.PageMask
	binary.LittleEndian.PutUint64(f[off:off+8], val)
	return nil
}

// RawRead copies bytes out of the address space without charging any
// simulated cost or touching the TLB. It exists for verification (tests,
// invariant checks) and host-side plumbing. Non-resident pages are read
// through the swap tier (swapped pages) or as zeros (demand-zero pages),
// so heap verification sees the same bytes a faulting load would.
func (as *AddressSpace) RawRead(va uint64, p []byte) error {
	for len(p) > 0 {
		off := int(va & mem.PageMask)
		n := mem.PageSize - off
		if n > len(p) {
			n = len(p)
		}
		pt := as.root.walk(va, false)
		if pt == nil {
			return badVA("RawRead", va)
		}
		e := pt.Entry(PTEIndex(va))
		switch {
		case e.Present:
			copy(p[:n], as.Phys.Frame(e.Frame)[off:off+n])
		case e.State == SwapSlot:
			as.swapper.ReadSlot(e.Slot, off, p[:n])
		case e.State == SwapZero:
			clear(p[:n])
		default:
			return badVA("RawRead", va)
		}
		va += uint64(n)
		p = p[n:]
	}
	return nil
}

// RawWrite copies bytes into the address space without charging. Writes
// to swapped pages land in their tier slot; a write of non-zero bytes
// to a demand-zero page admits the page into the tier (it stays
// non-resident — raw writes must not allocate frames).
func (as *AddressSpace) RawWrite(va uint64, p []byte) error {
	for len(p) > 0 {
		off := int(va & mem.PageMask)
		n := mem.PageSize - off
		if n > len(p) {
			n = len(p)
		}
		pt := as.root.walk(va, false)
		if pt == nil {
			return badVA("RawWrite", va)
		}
		e := pt.Entry(PTEIndex(va))
		switch {
		case e.Present:
			copy(as.Phys.Frame(e.Frame)[off:off+n], p[:n])
		case e.State == SwapSlot:
			as.swapper.WriteSlot(e.Slot, off, p[:n])
		case e.State == SwapZero:
			if allZero(p[:n]) {
				break // writing zeros to a zero page: no-op
			}
			var page [mem.PageSize]byte
			copy(page[off:], p[:n])
			slot, ok := as.swapper.AdmitPage(page[:])
			if !ok {
				return fmt.Errorf("mmu: RawWrite: va %#x: swap tier full", va)
			}
			e.Slot = slot
			e.State = SwapSlot
		default:
			return badVA("RawWrite", va)
		}
		va += uint64(n)
		p = p[n:]
	}
	return nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// ForEachTable visits every allocated PTE table in ascending VA order,
// calling fn with the table and the base VA of its 2 MiB span, until fn
// returns false. The reclaimer scans for victims with it.
func (as *AddressSpace) ForEachTable(fn func(baseVA uint64, pt *PTETable) bool) {
	for gi, pu := range as.root.puds {
		if pu == nil {
			continue
		}
		for ui, pm := range pu.pmds {
			if pm == nil {
				continue
			}
			for mi := range pm.tables {
				pt := pm.tables[mi]
				if pt == nil {
					continue
				}
				base := uint64(gi)<<pgdShift | uint64(ui)<<pudShift | uint64(mi)<<pmdShift
				if !fn(base, pt) {
					return
				}
			}
		}
	}
}
