package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// This file holds the declared-stream entries: bulk (bandwidth-charged)
// sequential transfers, the stream duals of the word-run API in run.go.
// Every entry is a thin wrapper over stream, the one page loop that
// charges a stream: Read and Write move bytes, WriteStream is Write
// counted as a declared stream, ReadWords and WriteWords move words
// straight between the caller's slice and the backing frames (no
// intermediate byte buffer), and ChargeStream charges movement the host
// performs elsewhere. So converting a call site between them is always
// bit-exact.
//
// The declared entries still take a cold bool, which is ignored and kept
// only so existing callers compile unchanged.

// stream charges a sequential n-byte stream at va one page segment at a
// time: the segment's translation, then chargeBulkAccess on its physical
// range. It moves each segment's bytes into or out of p, or its words
// into or out of w, when one is given (both nil charges only); a word
// stream's va is 8-aligned, so its segments hold whole words. The stream's
// bytes are counted up front, before any segment can fail.
func (as *AddressSpace) stream(env *Env, va uint64, n int, write bool, p []byte, w []uint64) error {
	if write {
		env.Perf.BytesWrite += uint64(n)
	} else {
		env.Perf.BytesRead += uint64(n)
	}
	for n > 0 {
		f, err := as.translatePage(env, va)
		if err != nil {
			return err
		}
		off := int(va & mem.PageMask)
		seg := min(n, mem.PageSize-off)
		env.chargeBulkAccess(uint64(f)<<mem.PageShift|uint64(off), seg, write)
		frame := as.Phys.Frame(f)[off : off+seg]
		switch {
		case p != nil && write:
			copy(frame, p)
			p = p[seg:]
		case p != nil:
			copy(p, frame)
			p = p[seg:]
		case w != nil && write:
			for i := range seg / 8 {
				binary.LittleEndian.PutUint64(frame[8*i:], w[i])
			}
			w = w[seg/8:]
		case w != nil:
			for i := range seg / 8 {
				w[i] = binary.LittleEndian.Uint64(frame[8*i:])
			}
			w = w[seg/8:]
		}
		va += uint64(seg)
		n -= seg
	}
	return nil
}

// streamPerf counts one declared stream of n bytes.
func streamPerf(env *Env, n int) {
	env.Perf.StreamRuns++
	env.Perf.StreamBytes += uint64(n)
}

// Read copies len(p) bytes from va into p as a charged sequential stream.
func (as *AddressSpace) Read(env *Env, va uint64, p []byte) error {
	return as.stream(env, va, len(p), false, p, nil)
}

// Write copies p to va as a charged sequential stream.
func (as *AddressSpace) Write(env *Env, va uint64, p []byte) error {
	return as.stream(env, va, len(p), true, p, nil)
}

// WriteStream is Write with stream accounting. cold is ignored.
func (as *AddressSpace) WriteStream(env *Env, va uint64, p []byte, cold bool) error {
	streamPerf(env, len(p))
	return as.stream(env, va, len(p), true, p, nil)
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
	return as.stream(env, va, 8*len(dst), false, nil, dst)
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
	return as.stream(env, va, 8*len(src), true, nil, src)
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
	return as.stream(env, va, n, write, nil, nil)
}

// Copy performs a charged memmove of n bytes from src to dst within the
// address space, handling overlap like memmove. It charges a streaming
// read of the source plus a streaming write of the destination (declared
// as two streams); the byte movement (moveBytes) has no simulated cost
// of its own. It moves resident pages frame to frame; with a swap tier
// armed, a page the charge left swapped out or demand-zero moves through
// RawRead and RawWrite one page segment at a time, so no Copy allocates
// a buffer for the range.
func (as *AddressSpace) Copy(env *Env, dst, src uint64, n int) error {
	if n <= 0 {
		return nil
	}
	if err := as.ChargeStream(env, src, n, false, false); err != nil {
		return err
	}
	if err := as.ChargeStream(env, dst, n, true, false); err != nil {
		return err
	}
	return as.moveBytes(dst, src, n)
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
