package mmu

import (
	"sync/atomic"

	"repro/internal/mem"
)

// TLB is a direct-mapped translation lookaside buffer for one simulated
// core. It caches VPN→frame translations per address-space ID. A TLB is
// mutated both by the core that owns it (fills, local flushes) and by
// shootdowns from other cores, which may run on other goroutines when
// several JVMs are driven concurrently — and the harness additionally
// runs many independent machines on host goroutines, so Lookup/Insert sit
// on the hottest simulated path there is. Entries are therefore guarded
// by a per-entry seqlock (a generation counter plus atomic key/frame
// words) instead of a mutex: the common case — the owning core looking up
// or filling its own TLB — is three uncontended atomic loads or one CAS,
// with no lock, no allocation, and no false sharing with other ASIDs'
// slots. Cross-core writers (shootdown handlers) take the per-entry
// writer CAS only for the slots they actually invalidate.
//
// A reader that races a writer simply misses and re-walks — the same
// behaviour real hardware exhibits between a PTE update and the
// invalidation landing, and a miss is always safe (it costs a walk, never
// a wrong translation).
//
// A shootdown reaches every core, but most cores hold nothing of the
// flushed address space, so the TLB also keeps a summary of which ASIDs
// may own valid entries (see FlushASID). Only writers touch it; Lookup
// never reads it.
type TLB struct {
	seq    []atomic.Uint32 // per-entry seqlock; odd = writer active
	keys   []atomic.Uint64 // tlbKey, or 0 when the slot is invalid
	frames []atomic.Uint32 // FrameID backing the key
	mask   uint64

	// live is 0 when no entry was inserted since the last emptying flush,
	// asid+1 (of the key's 16-bit ASID) when only that ASID was, and
	// tlbMixed when possibly several were. tlbMixed is sticky until
	// FlushAll.
	live atomic.Uint32
	// resets counts the flushes in flight that reset live to 0 and have
	// not finished their scan yet; a concurrent flush that finds nothing
	// in live must not return before they do.
	resets atomic.Int32
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
		seq:    make([]atomic.Uint32, n),
		keys:   make([]atomic.Uint64, n),
		frames: make([]atomic.Uint32, n),
		mask:   uint64(n - 1),
	}
}

// tlbValid marks a key as occupied; VPN 0 + ASID 0 would otherwise encode
// to 0, colliding with the empty-slot sentinel.
const tlbValid = uint64(1) << 63

func tlbKey(asid uint32, vpn uint64) uint64 {
	return tlbValid | vpn<<16 | uint64(asid&0xffff)
}

// lockEntry spins until it owns entry i's seqlock, returning the even
// generation it advanced from. Writers are rare (fills on miss,
// invalidations) and critical sections are a handful of stores, so a bare
// spin is cheaper than parking.
func (t *TLB) lockEntry(i uint64) uint32 {
	for {
		s := t.seq[i].Load()
		if s&1 == 0 && t.seq[i].CompareAndSwap(s, s+1) {
			return s
		}
	}
}

// Lookup returns the cached frame for (asid, vpn). It is lock-free: the
// generation is read before and after the entry words, bracketing a
// consistent snapshot.
func (t *TLB) Lookup(asid uint32, vpn uint64) (mem.FrameID, bool) {
	f, ok, _ := t.LookupCounted(asid, vpn)
	return f, ok
}

// LookupCounted is Lookup plus the number of seqlock retries the read
// needed. A reader that races a writer used to degrade to a miss, which
// made Perf.TLBMisses depend on host scheduling; instead the read now
// retries until a stable generation pair brackets the entry words, so the
// hit/miss outcome reflects actual table contents (deterministic given
// deterministic tables) and only the retry count — reported separately as
// Perf.TLBSeqlockRetries — varies with scheduling. Writer critical
// sections are a handful of stores, so the spin is momentary.
func (t *TLB) LookupCounted(asid uint32, vpn uint64) (mem.FrameID, bool, uint64) {
	i := vpn & t.mask
	var retries uint64
	for {
		s := t.seq[i].Load()
		if s&1 != 0 {
			retries++
			continue
		}
		key := t.keys[i].Load()
		f := mem.FrameID(t.frames[i].Load())
		if t.seq[i].Load() != s {
			retries++
			continue
		}
		if key != tlbKey(asid, vpn) {
			return mem.NilFrame, false, retries
		}
		return f, true, retries
	}
}

// Insert caches a translation, evicting whatever shared its slot.
func (t *TLB) Insert(asid uint32, vpn uint64, frame mem.FrameID) {
	i := vpn & t.mask
	s := t.lockEntry(i)
	t.keys[i].Store(tlbKey(asid, vpn))
	t.frames[i].Store(uint32(frame))
	t.seq[i].Store(s + 2)
	t.markLive(asid&0xffff + 1)
}

// markLive records in the live summary that an entry of the ASID encoded
// as mark now exists. It runs after the key is stored: a flush that resets
// live before this mark is re-armed by it, and one that resets live after
// the store scans after the store too, so a stored key is always either
// covered by live or cleared by a scan. Marking before the store would
// let a flush reset live and scan past the slot before the key lands.
func (t *TLB) markLive(mark uint32) {
	for {
		s := t.live.Load()
		if s == mark || s == tlbMixed {
			return
		}
		next := mark
		if s != 0 {
			next = tlbMixed
		}
		if t.live.CompareAndSwap(s, next) {
			return
		}
	}
}

// FlushASID invalidates every entry belonging to asid (the per-process
// flush issued by flush_tlb_local / shootdown handlers). When the live
// summary says no entry of asid can exist, it returns without touching a
// slot; when asid is the only live ASID, it resets the summary to 0
// before scanning, so an Insert racing the scan re-marks it. Otherwise
// (tlbMixed) it scans and leaves the summary as it is.
func (t *TLB) FlushASID(asid uint32) {
	mark := asid&0xffff + 1
	for {
		switch s := t.live.Load(); s {
		case mark:
			t.resets.Add(1)
			if t.live.CompareAndSwap(mark, 0) {
				t.scanASID(asid)
				t.resets.Add(-1)
				return
			}
			t.resets.Add(-1) // an Insert or a flush changed live; decide again
		case tlbMixed:
			t.scanASID(asid)
			return
		default:
			// 0 or another single ASID: no entry of asid can remain once
			// every reset flush in flight has finished its scan.
			if t.resets.Load() != 0 {
				t.scanASID(asid)
			}
			return
		}
	}
}

// scanASID clears every slot holding asid. Slots holding other ASIDs are
// skipped with a single load and never write-locked.
func (t *TLB) scanASID(asid uint32) {
	want := uint64(asid & 0xffff)
	for i := range t.keys {
		k := t.keys[i].Load()
		if k&tlbValid == 0 || k&0xffff != want {
			continue
		}
		s := t.lockEntry(uint64(i))
		// Re-check under the writer lock: a racing fill may have replaced
		// the slot with another ASID's translation, which must survive.
		if k := t.keys[i].Load(); k&tlbValid != 0 && k&0xffff == want {
			t.keys[i].Store(0)
		}
		t.seq[i].Store(s + 2)
	}
}

// FlushPage invalidates the single translation for (asid, vpn), the
// invlpg-style flush used by the overlap-swap inner loop.
func (t *TLB) FlushPage(asid uint32, vpn uint64) {
	i := vpn & t.mask
	key := tlbKey(asid, vpn)
	if t.keys[i].Load() != key {
		return
	}
	s := t.lockEntry(i)
	if t.keys[i].Load() == key {
		t.keys[i].Store(0)
	}
	t.seq[i].Store(s + 2)
}

// FlushAll invalidates everything and resets the live summary, tlbMixed
// included, before scanning.
func (t *TLB) FlushAll() {
	t.resets.Add(1)
	defer t.resets.Add(-1)
	t.live.Store(0)
	for i := range t.keys {
		if t.keys[i].Load() == 0 {
			continue
		}
		s := t.lockEntry(uint64(i))
		t.keys[i].Store(0)
		t.seq[i].Store(s + 2)
	}
}

// Size returns the entry count.
func (t *TLB) Size() int { return len(t.keys) }
