package mmu

import (
	"encoding/binary"
	"testing"

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
	asW, envW := runFixture(t, true)
	asB, envB := runFixture(t, true)
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
	asC, envC := runFixture(t, true)
	asD, envD := runFixture(t, true)
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
// future cache behaviour must be identical, batched or not.
func TestStreamColdHintParity(t *testing.T) {
	for _, batch := range []bool{true, false} {
		asC, envC := runFixture(t, batch)
		asP, envP := runFixture(t, batch)

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
			t.Errorf("batch=%v: clock diverges: cold-hinted %v, unhinted %v", batch, got, want)
		}
		if pC, pP := *envC.Perf, *envP.Perf; pC != pP {
			t.Errorf("batch=%v: perf diverges:\ncold-hinted: %+v\nunhinted:    %+v", batch, pC, pP)
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
				t.Fatalf("batch=%v: cache state diverges at probe %d (va %#x)", batch, i, va)
			}
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
			as, env := runFixture(t, true)
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
