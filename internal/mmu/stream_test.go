package mmu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// normalizeStreamCounters zeroes the stream-declaration counters, which
// legitimately differ between a call site using the word-stream entries
// and its byte-buffer reference (the reference declares no streams).
func normalizeStreamCounters(p *sim.Perf) {
	p.StreamRuns = 0
	p.StreamBytes = 0
}

// TestWordStreamsMatchByteBulk: ReadWords/WriteWords are advertised as
// charge-identical to Read/Write of the same range with the byte buffer
// elided — so a word-stream fixture and a byte-bulk fixture driven over
// the same (page-crossing, unaligned-offset) range must agree on data,
// clock, and every counter except the stream declarations themselves.
func TestWordStreamsMatchByteBulk(t *testing.T) {
	asW, envW := runFixture(t, nil)
	asB, envB := runFixture(t, nil)
	const words = 700 // 5600 bytes: crosses a page
	va := MmapBase + 24

	src := make([]uint64, words)
	for i := range src {
		src[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	if err := asW.WriteWords(envW, va, src, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8*words)
	for i, w := range src {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	if err := asB.Write(envB, va, buf); err != nil {
		t.Fatal(err)
	}

	gotW := make([]uint64, words)
	if err := asW.ReadWords(envW, va, gotW, false); err != nil {
		t.Fatal(err)
	}
	gotB := make([]byte, 8*words)
	if err := asB.Read(envB, va, gotB); err != nil {
		t.Fatal(err)
	}
	for i := range gotW {
		if want := binary.LittleEndian.Uint64(gotB[8*i:]); gotW[i] != want || gotW[i] != src[i] {
			t.Fatalf("word %d: stream read %#x, byte read %#x, wrote %#x", i, gotW[i], want, src[i])
		}
	}

	if got, want := envW.Clock.Now(), envB.Clock.Now(); got != want {
		t.Errorf("clock diverges: words %v, bytes %v", got, want)
	}
	if envW.Perf.StreamRuns != 2 || envW.Perf.StreamBytes != 2*8*words {
		t.Errorf("stream accounting: %d runs / %d bytes, want 2 / %d",
			envW.Perf.StreamRuns, envW.Perf.StreamBytes, 2*8*words)
	}
	pW, pB := *envW.Perf, *envB.Perf
	normalizeStreamCounters(&pW)
	normalizeStreamCounters(&pB)
	if pW != pB {
		t.Errorf("perf diverges:\nwords: %+v\nbytes: %+v", pW, pB)
	}

	if err := asW.ReadWords(envW, va+4, gotW, false); err == nil {
		t.Error("misaligned ReadWords accepted")
	}
	if err := asW.WriteWords(envW, va+4, src, false); err == nil {
		t.Error("misaligned WriteWords accepted")
	}
}

// TestChargeStreamMatchesReadWrite: the charge-only stream entry must
// advance the clock and counters exactly like the data-moving Read or
// Write of the same range — it is the same per-page chargeBulkAccess
// walk with the byte movement elided.
func TestChargeStreamMatchesReadWrite(t *testing.T) {
	asC, envC := runFixture(t, nil)
	asD, envD := runFixture(t, nil)
	const n = 9000 // crosses three pages
	va := MmapBase + 100

	if err := asC.ChargeStream(envC, va, n, false, false); err != nil {
		t.Fatal(err)
	}
	if err := asC.ChargeStream(envC, va, n, true, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	if err := asD.Read(envD, va, buf); err != nil {
		t.Fatal(err)
	}
	if err := asD.Write(envD, va, buf); err != nil {
		t.Fatal(err)
	}

	if got, want := envC.Clock.Now(), envD.Clock.Now(); got != want {
		t.Errorf("clock diverges: charge-only %v, data-moving %v", got, want)
	}
	pC, pD := *envC.Perf, *envD.Perf
	normalizeStreamCounters(&pC)
	normalizeStreamCounters(&pD)
	if pC != pD {
		t.Errorf("perf diverges:\ncharge-only: %+v\ndata-moving: %+v", pC, pD)
	}
	if err := asC.ChargeStream(envC, va, 0, false, false); err != nil {
		t.Fatal(err)
	}
	if envC.Perf.StreamRuns != 2 {
		t.Errorf("zero-length ChargeStream declared a stream (%d runs)", envC.Perf.StreamRuns)
	}
}

// TestStreamColdHintParity: the stream entries ignore their cold
// argument — with it set and clear, the clock, the counters and all
// future cache behaviour must be identical.
func TestStreamColdHintParity(t *testing.T) {
	asC, envC := runFixture(t, nil)
	asP, envP := runFixture(t, nil)

	words := make([]uint64, 1200)
	for i := range words {
		words[i] = uint64(i) | 0xabcd<<32
	}
	if err := asC.WriteWords(envC, MmapBase, words, true); err != nil {
		t.Fatal(err)
	}
	if err := asP.WriteWords(envP, MmapBase, words, false); err != nil {
		t.Fatal(err)
	}
	// Wrong hint: the same range is warm now.
	if err := asC.ChargeStream(envC, MmapBase, 8*len(words), false, true); err != nil {
		t.Fatal(err)
	}
	if err := asP.ChargeStream(envP, MmapBase, 8*len(words), false, false); err != nil {
		t.Fatal(err)
	}

	if got, want := envC.Clock.Now(), envP.Clock.Now(); got != want {
		t.Errorf("clock diverges: cold-hinted %v, unhinted %v", got, want)
	}
	if pC, pP := *envC.Perf, *envP.Perf; pC != pP {
		t.Errorf("perf diverges:\ncold-hinted: %+v\nunhinted:    %+v", pC, pP)
	}
	for i := 0; i < 256; i++ {
		va := MmapBase + uint64(i*112)&^7
		paC, err := asC.Translate(envC, va)
		if err != nil {
			t.Fatal(err)
		}
		paP, err := asP.Translate(envP, va)
		if err != nil {
			t.Fatal(err)
		}
		if hc, hp := envC.Cache.Access(paC), envP.Cache.Access(paP); hc != hp {
			t.Fatalf("cache state diverges at probe %d (va %#x)", i, va)
		}
	}
}

// TestCopyMemmoveSemantics: Copy's frame-to-frame fast path must have
// exact memmove semantics — including forward and backward overlap and
// chunks clamped at page boundaries on either side — and must charge a
// source-read stream plus a destination-write stream of n bytes each.
func TestCopyMemmoveSemantics(t *testing.T) {
	const span = 16 * 4096
	cases := []struct {
		name     string
		dst, src uint64
		n        int
	}{
		{"disjoint-cross-page", 5 * 4096, 1000, 9000},
		{"forward-overlap", 1040, 1000, 5000},  // dst inside [src, src+n)
		{"backward-overlap", 1000, 1040, 5000}, // safe forward walk
		{"same-address", 3000, 3000, 4096},
		{"within-page", 100, 300, 64},
		{"page-straddling-overlap", 4096 - 24, 4096 - 64, 8200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as, env := runFixture(t, nil)
			image := make([]byte, span)
			for i := range image {
				image[i] = byte(i*7 + i>>8)
			}
			if err := as.RawWrite(MmapBase, image); err != nil {
				t.Fatal(err)
			}
			// Go's copy is specified to handle overlap like memmove, so
			// the host-side image gives the expected result directly.
			copy(image[tc.dst:tc.dst+uint64(tc.n)], image[tc.src:tc.src+uint64(tc.n)])

			before := env.Clock.Now()
			if err := as.Copy(env, MmapBase+tc.dst, MmapBase+tc.src, tc.n); err != nil {
				t.Fatal(err)
			}
			if env.Clock.Now() == before {
				t.Error("Copy advanced no simulated time")
			}
			if env.Perf.StreamRuns != 2 || env.Perf.StreamBytes != 2*uint64(tc.n) {
				t.Errorf("charge streams: %d runs / %d bytes, want 2 / %d",
					env.Perf.StreamRuns, env.Perf.StreamBytes, 2*tc.n)
			}
			if env.Perf.BytesRead != uint64(tc.n) || env.Perf.BytesWrite != uint64(tc.n) {
				t.Errorf("byte counters: read %d write %d, want %d each",
					env.Perf.BytesRead, env.Perf.BytesWrite, tc.n)
			}

			got := make([]byte, span)
			if err := as.RawRead(MmapBase, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != image[i] {
					t.Fatalf("byte %d: got %#x, want %#x", i, got[i], image[i])
				}
			}
		})
	}
}

// The ref* functions are the stream entries as they stood before they
// were folded into one page loop: refBulk behind Read, Write and
// WriteStream, refChargeRange behind ChargeStream and Copy, and
// ReadWords and WriteWords each with a loop of its own. They are the
// reference stream is held to.
func refBulk(as *AddressSpace, env *Env, va uint64, p []byte, write bool) error {
	for len(p) > 0 {
		f, err := as.translatePage(env, va)
		if err != nil {
			return err
		}
		off := int(va & mem.PageMask)
		n := mem.PageSize - off
		if n > len(p) {
			n = len(p)
		}
		pa := uint64(f)<<mem.PageShift | uint64(off)
		env.chargeBulkAccess(pa, n, write)
		frame := as.Phys.Frame(f)
		if write {
			copy(frame[off:off+n], p[:n])
		} else {
			copy(p[:n], frame[off:off+n])
		}
		va += uint64(n)
		p = p[n:]
	}
	return nil
}

func refChargeRange(as *AddressSpace, env *Env, va uint64, n int, write bool) error {
	for n > 0 {
		f, err := as.translatePage(env, va)
		if err != nil {
			return err
		}
		off := int(va & mem.PageMask)
		seg := mem.PageSize - off
		if seg > n {
			seg = n
		}
		env.chargeBulkAccess(uint64(f)<<mem.PageShift|uint64(off), seg, write)
		va += uint64(seg)
		n -= seg
	}
	return nil
}

func refReadWords(as *AddressSpace, env *Env, va uint64, dst []uint64) error {
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

func refWriteWords(as *AddressSpace, env *Env, va uint64, src []uint64) error {
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

// refStreamOp runs stream op kind on the reference side; it mirrors the
// switch in TestStreamsMatchReference.
func refStreamOp(as *AddressSpace, env *Env, kind int, va, src uint64, n int, p []byte, w []uint64) error {
	switch kind {
	case 0: // Read
		env.Perf.BytesRead += uint64(n)
		return refBulk(as, env, va, p, false)
	case 1: // Write
		env.Perf.BytesWrite += uint64(n)
		return refBulk(as, env, va, p, true)
	case 2: // WriteStream
		streamPerf(env, n)
		env.Perf.BytesWrite += uint64(n)
		return refBulk(as, env, va, p, true)
	case 3:
		return refReadWords(as, env, va, w)
	case 4:
		return refWriteWords(as, env, va, w)
	case 5, 6: // ChargeStream, read and write
		if n <= 0 {
			return nil
		}
		streamPerf(env, n)
		if kind == 6 {
			env.Perf.BytesWrite += uint64(n)
		} else {
			env.Perf.BytesRead += uint64(n)
		}
		return refChargeRange(as, env, va, n, kind == 6)
	default: // Copy from src to va
		if n <= 0 {
			return nil
		}
		for i, a := range []uint64{src, va} {
			streamPerf(env, n)
			if i == 1 {
				env.Perf.BytesWrite += uint64(n)
			} else {
				env.Perf.BytesRead += uint64(n)
			}
			if err := refChargeRange(as, env, a, n, i == 1); err != nil {
				return err
			}
		}
		return as.moveBytes(va, src, n)
	}
}

// TestStreamsMatchReference drives every stream entry (and Copy, which
// charges two streams) with random addresses, page-crossing and zero
// lengths, misaligned word streams and streams that run off the end of
// the mapping, against the per-entry loops they replaced, with TLB
// flushes and (on the swap machine) evictions mixed in; a quarter of the
// writes carry zeros, which back no frame. After every op the errors, the
// clocks, the full perf counters and the data read must agree and every
// unbacked frame must read zero; at the end, the TLBs, the LLCs and the
// memory must too.
func TestStreamsMatchReference(t *testing.T) {
	const span = wordPages * mem.PageSize
	for _, m := range wordMachines {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			got, ref := newWordFixture(t, m), newWordFixture(t, m)
			for op := 0; op < 4000; op++ {
				off := rng.Intn(span)
				if rng.Intn(3) == 0 {
					off = rng.Intn(4 * mem.PageSize) // a few hot pages
				}
				n := rng.Intn(3 * mem.PageSize)
				switch rng.Intn(8) {
				case 0:
					n = 0
				case 1:
					n = rng.Intn(64)
				}
				if off+n > span && rng.Intn(4) != 0 {
					n = span - off // usually stay inside the mapping
				}
				kind := rng.Intn(8)
				if kind == 3 || kind == 4 {
					n /= 8 // words
					if rng.Intn(8) != 0 {
						off &^= 7
					}
				}
				va := MmapBase + uint64(off)
				src := MmapBase + uint64(rng.Intn(span-min(n, span-1)))
				switch r := rng.Intn(16); {
				case r == 0:
					got.env.TLB.FlushPage(1, VPN(va))
					ref.env.TLB.FlushPage(1, VPN(va))
				case r == 1 && m.swap:
					got.swap.evict(got.as, got.env, va)
					ref.swap.evict(ref.as, ref.env, va)
				}
				pG, pR := make([]byte, n), make([]byte, n)
				wG, wR := make([]uint64, n), make([]uint64, n)
				for i := range pG {
					pG[i] = byte(rng.Intn(256))
				}
				for i := range wG {
					wG[i] = rng.Uint64()
				}
				if rng.Intn(4) == 0 {
					clear(pG)
					clear(wG)
				}
				copy(pR, pG)
				copy(wR, wG)

				var errG error
				switch kind {
				case 0:
					errG = got.as.Read(got.env, va, pG)
				case 1:
					errG = got.as.Write(got.env, va, pG)
				case 2:
					errG = got.as.WriteStream(got.env, va, pG, rng.Intn(2) == 0)
				case 3:
					errG = got.as.ReadWords(got.env, va, wG, false)
				case 4:
					errG = got.as.WriteWords(got.env, va, wG, true)
				case 5, 6:
					errG = got.as.ChargeStream(got.env, va, n, kind == 6, false)
				default:
					errG = got.as.Copy(got.env, va, src, n)
				}
				errR := refStreamOp(ref.as, ref.env, kind, va, src, n, pR, wR)
				if (errG == nil) != (errR == nil) {
					t.Fatalf("op %d (kind %d, va %#x, n %d): error %v, reference %v", op, kind, va, n, errG, errR)
				}
				if *got.env.Clock != *ref.env.Clock {
					t.Fatalf("op %d (kind %d, va %#x, n %d): clock %v, reference %v", op, kind, va, n,
						got.env.Clock.Now(), ref.env.Clock.Now())
				}
				if *got.env.Perf != *ref.env.Perf {
					t.Fatalf("op %d (kind %d, va %#x, n %d): perf diverges:\nstream:    %+v\nreference: %+v",
						op, kind, va, n, *got.env.Perf, *ref.env.Perf)
				}
				if !bytes.Equal(pG, pR) || !slices.Equal(wG, wR) {
					t.Fatalf("op %d (kind %d, va %#x, n %d): data read diverges", op, kind, va, n)
				}
				checkUnbackedZero(t, got.as.Phys, fmt.Sprintf("op %d (kind %d, va %#x, n %d)", op, kind, va, n))
			}
			if !reflect.DeepEqual(got.env.TLB, ref.env.TLB) {
				t.Error("TLB contents diverge")
			}
			if !reflect.DeepEqual(got.env.Cache, ref.env.Cache) {
				t.Error("LLC state diverges")
			}
			memG, memR := make([]byte, span), make([]byte, span)
			if err := got.as.RawRead(MmapBase, memG); err != nil {
				t.Fatal(err)
			}
			if err := ref.as.RawRead(MmapBase, memR); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(memG, memR) {
				t.Errorf("memory diverges at byte %d", firstDiff(memG, memR))
			}
			p := got.env.Perf
			if p.CacheMisses == 0 || p.TLBMisses == 0 || p.StreamRuns == 0 {
				t.Errorf("traffic missed a case: %d LLC misses, %d TLB misses, %d streams",
					p.CacheMisses, p.TLBMisses, p.StreamRuns)
			}
			if m.swap && got.swap.pageIns < wordPages {
				t.Errorf("page-ins: %d, want repeated faults", got.swap.pageIns)
			}
		})
	}
}
