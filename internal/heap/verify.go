package heap

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/mmu"
)

// Shadow verification for compacting collectors. A collector captures a
// ShadowDigest between its adjust and compact phases — when every live
// object's forwarding address and final reference values are in place —
// and verifies it after compaction. The check is host-side and uncharged:
// it reads raw memory only, so enabling it never perturbs simulated
// figures. It catches exactly the damage a faulty (or faultily recovered)
// move could do: a half-moved object, a stale mark/forwarding word, bytes
// that differ from the source, and frames leaked or double-mapped by a
// bad PTE rollback.

// shadowObj records where one live object must land and what it must
// contain when it gets there.
type shadowObj struct {
	dest  uint64 // forwarding address (== source VA when not moving)
	size  int
	word1 uint64 // refs/class/age word, invariant across the move
	sum   uint64 // FNV-1a over the body [src+HeaderBytes, src+size)
}

// pageBacking identifies what backs one heap page: a physical frame, a
// swap-tier slot, a discarded all-zero page, or (only on swap-armed,
// lazily-mapped machines) nothing yet.
type pageBacking struct {
	kind byte // 'f' frame, 's' slot, 'z' zero, 'n' none
	id   uint64
}

// ShadowDigest is the pre-compaction snapshot VerifyShadow checks against.
type ShadowDigest struct {
	from    uint64
	objs    []shadowObj
	backing []pageBacking // sorted multiset backing the whole heap
}

// Objects returns the number of live objects captured.
func (s *ShadowDigest) Objects() int { return len(s.objs) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// bodySum digests [va, va+n) from raw memory in bounded chunks.
func (h *Heap) bodySum(va uint64, n int) (uint64, error) {
	sum := uint64(fnvOffset)
	var buf [4096]byte
	for n > 0 {
		c := n
		if c > len(buf) {
			c = len(buf)
		}
		if err := h.AS.RawRead(va, buf[:c]); err != nil {
			return 0, err
		}
		for _, b := range buf[:c] {
			sum = (sum ^ uint64(b)) * fnvPrime
		}
		va += uint64(c)
		n -= c
	}
	return sum, nil
}

// rawWord reads one raw little-endian word (uncharged).
func (h *Heap) rawWord(va uint64) (uint64, error) {
	if err := h.AS.RawRead(va, h.word[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(h.word[:]), nil
}

// backingSnapshot returns the sorted multiset of page backings across
// the heap. Without a swap tier every page must be frame-backed, as
// before; with one armed, pages may live in a tier slot, be discarded
// zeros, or (heap tail, lazily mapped) have no backing yet.
func (h *Heap) backingSnapshot() ([]pageBacking, error) {
	swap := h.AS.Swapped()
	out := make([]pageBacking, 0, (h.end-h.start)>>mem.PageShift)
	for va := h.start; va < h.end; va += mem.PageSize {
		pt, i, err := h.AS.PTETableFor(va)
		if err != nil {
			if swap {
				out = append(out, pageBacking{kind: 'n'})
				continue
			}
			return nil, fmt.Errorf("heap: page %#x unmapped", va)
		}
		switch e := pt.Entry(i); {
		case e.Present:
			out = append(out, pageBacking{kind: 'f', id: uint64(e.Frame)})
		case e.State == mmu.SwapSlot:
			out = append(out, pageBacking{kind: 's', id: uint64(e.Slot)})
		case e.State == mmu.SwapZero:
			out = append(out, pageBacking{kind: 'z'})
		case swap:
			out = append(out, pageBacking{kind: 'n'})
		default:
			return nil, fmt.Errorf("heap: page %#x unmapped", va)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].kind != out[j].kind {
			return out[i].kind < out[j].kind
		}
		return out[i].id < out[j].id
	})
	return out, nil
}

// CaptureShadow walks [from, top) raw and records, for every marked
// object, its forwarding destination, metadata word, and a digest of its
// body bytes — plus the frame multiset of the entire heap. Collectors
// call it after the adjust phase: reference slots then already hold their
// final values, so each body travels to its destination bit-identically.
func (h *Heap) CaptureShadow(from, top uint64) (*ShadowDigest, error) {
	s := &ShadowDigest{from: from}
	cur := from
	for cur < top {
		w0, err := h.rawWord(cur)
		if err != nil {
			return nil, err
		}
		size := int(w0 & sizeMask)
		if size < MinFillerBytes || cur+uint64(size) > top {
			return nil, fmt.Errorf("heap: shadow capture: corrupt header at %#x (size %d)", cur, size)
		}
		if w0&fillerBit == 0 && w0&markBit != 0 {
			w1, err := h.rawWord(cur + 8)
			if err != nil {
				return nil, err
			}
			dest, err := h.rawWord(cur + 16)
			if err != nil {
				return nil, err
			}
			if dest == 0 {
				return nil, fmt.Errorf("heap: shadow capture: marked object %#x has no forwarding", cur)
			}
			sum, err := h.bodySum(cur+HeaderBytes, size-HeaderBytes)
			if err != nil {
				return nil, err
			}
			s.objs = append(s.objs, shadowObj{dest: dest, size: size, word1: w1, sum: sum})
		}
		cur += uint64(size)
	}
	var err error
	s.backing, err = h.backingSnapshot()
	return s, err
}

// VerifyShadow checks the post-compaction heap against a captured digest:
// the range is walkable, every captured object sits at its forwarding
// address with a clean header (mark and forwarding cleared, size and
// metadata intact) and a bit-identical body, live objects tile the
// compacted prefix in capture order, and the heap's frame multiset is
// unchanged with no frame mapped twice.
func (h *Heap) VerifyShadow(s *ShadowDigest, newTop uint64) error {
	if err := h.VerifyWalkable(); err != nil {
		return fmt.Errorf("post-GC heap not walkable: %w", err)
	}
	prevEnd := s.from
	for i, o := range s.objs {
		if o.dest < prevEnd {
			return fmt.Errorf("post-GC: object %d at %#x overlaps previous (ends %#x)", i, o.dest, prevEnd)
		}
		if o.dest+uint64(o.size) > newTop {
			return fmt.Errorf("post-GC: object %d at %#x (size %d) beyond top %#x", i, o.dest, o.size, newTop)
		}
		w0, err := h.rawWord(o.dest)
		if err != nil {
			return err
		}
		if int(w0&sizeMask) != o.size || w0&(markBit|fillerBit) != 0 {
			return fmt.Errorf("post-GC: object at %#x has dirty header %#x (want clean size %d)", o.dest, w0, o.size)
		}
		w1, err := h.rawWord(o.dest + 8)
		if err != nil {
			return err
		}
		if w1 != o.word1 {
			return fmt.Errorf("post-GC: object at %#x metadata %#x != captured %#x", o.dest, w1, o.word1)
		}
		w2, err := h.rawWord(o.dest + 16)
		if err != nil {
			return err
		}
		if w2 != 0 {
			return fmt.Errorf("post-GC: object at %#x has unresolved forwarding %#x", o.dest, w2)
		}
		sum, err := h.bodySum(o.dest+HeaderBytes, o.size-HeaderBytes)
		if err != nil {
			return err
		}
		if sum != o.sum {
			return fmt.Errorf("post-GC: object at %#x body digest %#x != captured %#x (corrupted move)", o.dest, sum, o.sum)
		}
		prevEnd = o.dest + uint64(o.size)
	}
	backing, err := h.backingSnapshot()
	if err != nil {
		return err
	}
	// No frame and no tier slot may back two heap pages at once — the
	// damage a bad PTE rollback does. The snapshot is sorted, so
	// duplicates are adjacent ('z' and 'n' entries carry no identity).
	for i := 1; i < len(backing); i++ {
		if backing[i] == backing[i-1] && (backing[i].kind == 'f' || backing[i].kind == 's') {
			what := "frame"
			if backing[i].kind == 's' {
				what = "tier slot"
			}
			return fmt.Errorf("post-GC: %s %d double-mapped", what, backing[i].id)
		}
	}
	if h.AS.Swapped() {
		// Residency legitimately changes across a collection on a
		// swap-armed machine (compaction faults pages in, reclaim pushes
		// them out), so the multiset comparison below would misfire; the
		// double-mapping check above is the part that survives.
		return nil
	}
	if len(backing) != len(s.backing) {
		return fmt.Errorf("post-GC: heap backed by %d pages, captured %d", len(backing), len(s.backing))
	}
	for i := range backing {
		if backing[i] != s.backing[i] {
			return fmt.Errorf("post-GC: frame multiset changed (leaked or foreign frame %d)", backing[i].id)
		}
	}
	return nil
}
