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

// moveBytes moves n bytes from src to dst frame-to-frame with memmove
// overlap semantics and no intermediate buffer. Every page must be
// resident (callers check that no swap tier is armed).
func (as *AddressSpace) moveBytes(dst, src uint64, n int) error {
	if dst == src || n <= 0 {
		return nil
	}
	if src < dst && dst < src+uint64(n) {
		// Forward-overlapping move: walk backward so each chunk's source
		// bytes are read before any earlier chunk overwrites them. Chunk
		// ends are clamped so neither side crosses a page boundary; within
		// a chunk, copy has memmove semantics even on a shared frame.
		for n > 0 {
			chunk := n
			if a := int((src+uint64(n)-1)&mem.PageMask) + 1; a < chunk {
				chunk = a
			}
			if a := int((dst+uint64(n)-1)&mem.PageMask) + 1; a < chunk {
				chunk = a
			}
			s, d := src+uint64(n-chunk), dst+uint64(n-chunk)
			if err := as.moveChunk(d, s, chunk); err != nil {
				return err
			}
			n -= chunk
		}
		return nil
	}
	for n > 0 {
		chunk := n
		if a := mem.PageSize - int(src&mem.PageMask); a < chunk {
			chunk = a
		}
		if a := mem.PageSize - int(dst&mem.PageMask); a < chunk {
			chunk = a
		}
		if err := as.moveChunk(dst, src, chunk); err != nil {
			return err
		}
		src += uint64(chunk)
		dst += uint64(chunk)
		n -= chunk
	}
	return nil
}

// moveChunk copies one chunk that crosses no page boundary on either side.
func (as *AddressSpace) moveChunk(dst, src uint64, n int) error {
	sf, ok := as.Lookup(src)
	if !ok {
		return badVA("Copy", src)
	}
	df, ok := as.Lookup(dst)
	if !ok {
		return badVA("Copy", dst)
	}
	sOff, dOff := int(src&mem.PageMask), int(dst&mem.PageMask)
	copy(as.Phys.Frame(df)[dOff:dOff+n], as.Phys.Frame(sf)[sOff:sOff+n])
	return nil
}
