package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// This file holds the declared-stream entries: bulk (bandwidth-charged)
// sequential transfers a caller announces up front, the stream duals of
// the word-run API in run.go. A declared stream charges exactly what the
// equivalent Read/Write of the same bytes would — same page segmentation,
// same per-segment chargeBulkAccess — so converting a call site is always
// bit-exact. What the caller buys is (a) no intermediate byte buffer for
// word-typed data (ReadWords/WriteWords move words straight between the
// caller's slice and the backing frames) and (b) a charge-only entry
// (ChargeStream) for movement the host performs elsewhere.
//
// Every entry still takes a cold bool, which is ignored and kept only so
// existing callers compile unchanged.

// streamPerf counts one declared stream of n bytes.
func streamPerf(env *Env, n int) {
	env.Perf.StreamRuns++
	env.Perf.StreamBytes += uint64(n)
}

// WriteStream is Write with stream accounting. cold is ignored.
func (as *AddressSpace) WriteStream(env *Env, va uint64, p []byte, cold bool) error {
	streamPerf(env, len(p))
	env.Perf.BytesWrite += uint64(len(p))
	return as.bulk(env, va, p, true)
}

// ReadWords performs a charged sequential read of 8*len(dst) bytes at va,
// decoding straight into dst — charge-identical to Read of the same range
// with no intermediate byte buffer. va must be 8-byte aligned; cold is
// ignored.
func (as *AddressSpace) ReadWords(env *Env, va uint64, dst []uint64, cold bool) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: ReadWords: va %#x not 8-aligned", va)
	}
	streamPerf(env, 8*len(dst))
	env.Perf.BytesRead += 8 * uint64(len(dst))
	for len(dst) > 0 {
		f, err := as.translatePage(env, va)
		if err != nil {
			return err
		}
		off := int(va & mem.PageMask)
		k := (mem.PageSize - off) / 8
		if k > len(dst) {
			k = len(dst)
		}
		pa := uint64(f)<<mem.PageShift | uint64(off)
		env.chargeBulkAccess(pa, 8*k, false)
		frame := as.Phys.Frame(f)
		for i := 0; i < k; i++ {
			o := off + 8*i
			dst[i] = binary.LittleEndian.Uint64(frame[o : o+8])
		}
		va += uint64(8 * k)
		dst = dst[k:]
	}
	return nil
}

// WriteWords performs a charged sequential write of 8*len(src) bytes at
// va, encoding straight from src — charge-identical to Write of the same
// range with no intermediate byte buffer. va must be 8-byte aligned; cold
// is ignored.
func (as *AddressSpace) WriteWords(env *Env, va uint64, src []uint64, cold bool) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: WriteWords: va %#x not 8-aligned", va)
	}
	streamPerf(env, 8*len(src))
	env.Perf.BytesWrite += 8 * uint64(len(src))
	for len(src) > 0 {
		f, err := as.translatePage(env, va)
		if err != nil {
			return err
		}
		off := int(va & mem.PageMask)
		k := (mem.PageSize - off) / 8
		if k > len(src) {
			k = len(src)
		}
		pa := uint64(f)<<mem.PageShift | uint64(off)
		env.chargeBulkAccess(pa, 8*k, true)
		frame := as.Phys.Frame(f)
		for i := 0; i < k; i++ {
			o := off + 8*i
			binary.LittleEndian.PutUint64(frame[o:o+8], src[i])
		}
		va += uint64(8 * k)
		src = src[k:]
	}
	return nil
}

// ChargeStream charges a sequential n-byte stream at va without moving
// any data — the bulk-transfer analogue of ChargeRun, for movement the
// host performs through other plumbing (Copy's frame-to-frame move, the
// compression kernels' host-side transforms). cold is ignored.
func (as *AddressSpace) ChargeStream(env *Env, va uint64, n int, write, cold bool) error {
	if n <= 0 {
		return nil
	}
	streamPerf(env, n)
	if write {
		env.Perf.BytesWrite += uint64(n)
	} else {
		env.Perf.BytesRead += uint64(n)
	}
	return as.chargeRange(env, va, n, write)
}

// moveBytes moves n bytes from src to dst with memmove overlap semantics,
// one destination-page segment at a time, holding at most one page of
// bytes on the host. A segment whose pages are all resident moves frame
// to frame. Any other segment (a source or destination page swapped out
// or demand-zero, on a swap-armed space) bounces through the space's
// scratch page with RawRead and RawWrite, which understand every
// residency state. Each bounce writes one whole destination segment, so
// a demand-zero destination page is admitted to the tier with the same
// bytes, and in the same order, as one RawWrite of the whole range
// (except in a forward-overlapping move, which must write backward).
func (as *AddressSpace) moveBytes(dst, src uint64, n int) error {
	if dst == src || n <= 0 {
		return nil
	}
	if src < dst && dst < src+uint64(n) {
		// Forward-overlapping move: walk backward so each segment's source
		// bytes are read before any earlier segment overwrites them.
		for n > 0 {
			seg := min(n, int((dst+uint64(n)-1)&mem.PageMask)+1)
			n -= seg
			if err := as.moveSegment(dst+uint64(n), src+uint64(n), seg, true); err != nil {
				return err
			}
		}
		return nil
	}
	for n > 0 {
		seg := min(n, mem.PageSize-int(dst&mem.PageMask))
		if err := as.moveSegment(dst, src, seg, false); err != nil {
			return err
		}
		src += uint64(seg)
		dst += uint64(seg)
		n -= seg
	}
	return nil
}

// moveSegment moves n bytes into one destination page. The source may
// straddle a page boundary: its first lo bytes sit in one page, the rest
// at the start of the next. A backward move copies the second part first,
// so a part sharing the destination's frame is read before the other
// copy overwrites it; within one copy, copy has memmove semantics.
func (as *AddressSpace) moveSegment(dst, src uint64, n int, backward bool) error {
	lo := min(n, mem.PageSize-int(src&mem.PageMask))
	df, dok := as.Lookup(dst)
	sf, sok := as.Lookup(src)
	hf, hok := sf, true
	if lo < n {
		hf, hok = as.Lookup(src + uint64(lo))
	}
	if dok && sok && hok {
		d := as.Phys.Frame(df)[dst&mem.PageMask:][:n]
		s := as.Phys.Frame(sf)[src&mem.PageMask:][:lo]
		h := as.Phys.Frame(hf)[:n-lo]
		if backward {
			copy(d[lo:], h)
			copy(d[:lo], s)
		} else {
			copy(d[:lo], s)
			copy(d[lo:], h)
		}
		return nil
	}
	if as.bounce == nil {
		as.bounce = new([mem.PageSize]byte)
	}
	b := as.bounce[:n]
	if err := as.RawRead(src, b); err != nil {
		return err
	}
	return as.RawWrite(dst, b)
}
