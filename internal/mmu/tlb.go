package mmu

import "repro/internal/mem"

// TLB is a direct-mapped translation lookaside buffer for one simulated
// core. It caches VPN→frame translations per address-space ID. It is
// mutated by the core that owns it (fills, local flushes) and by
// shootdowns issued from other cores; all of them run on the one host
// goroutine that drives the machine, so entries are plain words.
//
// A shootdown reaches every core, but most cores hold nothing of the
// flushed address space, so the TLB also keeps a summary of which ASIDs
// may own valid entries (see FlushASID). Lookup never reads it.
type TLB struct {
	keys   []uint64 // tlbKey, or 0 when the slot is invalid
	frames []uint32 // FrameID backing the key
	mask   uint64

	// live is 0 when no entry was inserted since the last emptying flush,
	// asid+1 (of the key's 16-bit ASID) when only that ASID was, and
	// tlbMixed when possibly several were. tlbMixed is sticky until
	// FlushAll.
	live uint32
}

// tlbMixed is the live summary for "possibly several ASIDs"; asid+1 never
// exceeds 1<<16.
const tlbMixed = ^uint32(0)

// DefaultTLBEntries matches a typical unified second-level data TLB.
// NewTLB rounds it up to a power of two, so every simulated core really
// has 2048 entries; the checked-in goldens depend on that size.
const DefaultTLBEntries = 1536

// NewTLB builds a TLB with the given number of entries, rounded up to a
// power of two.
func NewTLB(entries int) *TLB {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &TLB{
		keys:   make([]uint64, n),
		frames: make([]uint32, n),
		mask:   uint64(n - 1),
	}
}

// tlbValid marks a key as occupied; VPN 0 + ASID 0 would otherwise encode
// to 0, colliding with the empty-slot sentinel.
const tlbValid = uint64(1) << 63

func tlbKey(asid uint32, vpn uint64) uint64 {
	return tlbValid | vpn<<16 | uint64(asid&0xffff)
}

// Lookup returns the cached frame for (asid, vpn).
func (t *TLB) Lookup(asid uint32, vpn uint64) (mem.FrameID, bool) {
	i := vpn & t.mask
	if t.keys[i] != tlbKey(asid, vpn) {
		return mem.NilFrame, false
	}
	return mem.FrameID(t.frames[i]), true
}

// Insert caches a translation, evicting whatever shared its slot, and
// marks its ASID in the live summary.
func (t *TLB) Insert(asid uint32, vpn uint64, frame mem.FrameID) {
	i := vpn & t.mask
	t.keys[i] = tlbKey(asid, vpn)
	t.frames[i] = uint32(frame)
	switch mark := asid&0xffff + 1; t.live {
	case 0:
		t.live = mark
	case mark, tlbMixed:
	default:
		t.live = tlbMixed
	}
}

// FlushASID invalidates every entry belonging to asid (the per-process
// flush issued by flush_tlb_local / shootdown handlers). When the live
// summary says no entry of asid can exist, it returns without touching a
// slot; when asid is the only live ASID, it resets the summary to 0 and
// scans; otherwise (tlbMixed) it scans and leaves the summary as it is.
func (t *TLB) FlushASID(asid uint32) {
	switch t.live {
	case asid&0xffff + 1:
		t.live = 0
	case tlbMixed:
	default:
		return
	}
	want := uint64(asid & 0xffff)
	for i, k := range t.keys {
		if k&tlbValid != 0 && k&0xffff == want {
			t.keys[i] = 0
		}
	}
}

// FlushPage invalidates the single translation for (asid, vpn), the
// invlpg-style flush used by the overlap-swap inner loop.
func (t *TLB) FlushPage(asid uint32, vpn uint64) {
	if i := vpn & t.mask; t.keys[i] == tlbKey(asid, vpn) {
		t.keys[i] = 0
	}
}

// FlushAll invalidates everything and resets the live summary, tlbMixed
// included.
func (t *TLB) FlushAll() {
	t.live = 0
	clear(t.keys)
}

// Size returns the entry count.
func (t *TLB) Size() int { return len(t.keys) }
