package mmu

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// slotSwapper keeps swapped pages in host slices and logs every page it
// admits, so a test can see which pages a move sent to the tier, with
// what bytes and in what order. PageIn materialises a page uncharged.
type slotSwapper struct {
	slots  [][]byte // index 0 unused: slot IDs are 1-based
	admits [][]byte
}

func newSlotSwapper() *slotSwapper { return &slotSwapper{slots: make([][]byte, 1)} }

func (s *slotSwapper) PageIn(env *Env, as *AddressSpace, va uint64) (mem.FrameID, bool, error) {
	pt := as.root.walk(va, false)
	if pt == nil {
		return mem.NilFrame, false, nil
	}
	e := pt.Entry(PTEIndex(va))
	if e.Present || e.State == SwapNone {
		return mem.NilFrame, false, nil
	}
	f, err := as.Phys.AllocFrame()
	if err != nil {
		return mem.NilFrame, false, err
	}
	if e.State == SwapSlot {
		copy(as.Phys.Frame(f)[:], s.slots[e.Slot])
		s.FreeSlot(e.Slot)
	}
	*e = PTE{Frame: f, Present: true}
	return f, true, nil
}

func (s *slotSwapper) FreeSlot(id uint32)                     { s.slots[id] = nil }
func (s *slotSwapper) ReadSlot(id uint32, off int, p []byte)  { copy(p, s.slots[id][off:]) }
func (s *slotSwapper) WriteSlot(id uint32, off int, p []byte) { copy(s.slots[id][off:], p) }

func (s *slotSwapper) AdmitPage(p []byte) (uint32, bool) {
	s.slots = append(s.slots, bytes.Clone(p))
	s.admits = append(s.admits, bytes.Clone(p))
	return uint32(len(s.slots) - 1), true
}

// movePages is the span the mover property runs over: enough pages that
// a move can straddle several boundaries on both sides.
const movePages = 8

// newMoveFixture maps movePages pages on a swap-armed space and puts page
// i in residency state (states>>2i)&3: 0 demand-zero, 1 swapped out,
// 2 and 3 resident. Bit i of fill makes page i's bytes nonzero (a
// demand-zero page stays zero); a zero page tests the all-zero write to
// a demand-zero page, which admits nothing. A state-2 page is written
// through Frame, so it is backed even when zero; a state-3 page through
// RawWrite, so a zero one stays unbacked.
func newMoveFixture(t testing.TB, states uint16, fill byte) (*AddressSpace, *slotSwapper) {
	t.Helper()
	sw := newSlotSwapper()
	as := NewAddressSpace(1, mem.NewPhysMem(0))
	as.SetSwapper(sw)
	if err := as.Map(MmapBase, movePages); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < movePages; i++ {
		state := states >> (2 * i) & 3
		if state == 0 {
			continue
		}
		page := make([]byte, mem.PageSize)
		if fill>>i&1 != 0 {
			for j := range page {
				page[j] = byte(i*31 + j*7 + j>>9 + int(fill))
			}
		}
		va := MmapBase + uint64(i)<<mem.PageShift
		e := as.root.walk(va, false).Entry(PTEIndex(va))
		if state == 1 {
			slot, _ := sw.AdmitPage(page)
			*e = PTE{Frame: mem.NilFrame, State: SwapSlot, Slot: slot}
			continue
		}
		f, err := as.Phys.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		*e = PTE{Frame: f, Present: true}
		if state == 2 {
			copy(as.Phys.Frame(f)[:], page)
		} else if err := as.RawWrite(va, page); err != nil {
			t.Fatal(err)
		}
	}
	sw.admits = nil
	return as, sw
}

// residency names each page's state, for comparing two spaces; slots
// adds each swapped page's slot number.
func residency(as *AddressSpace, slots bool) string {
	var b strings.Builder
	for i := 0; i < movePages; i++ {
		va := MmapBase + uint64(i)<<mem.PageShift
		e := as.root.walk(va, false).Entry(PTEIndex(va))
		switch {
		case e.Present:
			b.WriteString("P ")
		case e.State != SwapSlot:
			b.WriteString("Z ")
		case slots:
			fmt.Fprintf(&b, "S%d ", e.Slot)
		default:
			b.WriteString("S ")
		}
	}
	return b.String()
}

// checkMove moves l bytes from offset s to offset d of a fixture and
// checks the result against a host copy of a snapshot of the span: the
// destination gets the source's old bytes and no byte outside it
// changes. A twin fixture takes the same move as one RawWrite of the
// snapshotted source, the whole-range bounce the mover replaces; both
// must end with every page in the same residency state, and, unless the
// move overlaps forward (and so must write backward), with the same
// pages admitted to the tier, holding the same bytes, in the same order.
// After each side's write, every unbacked frame must still read zero.
func checkMove(t *testing.T, states uint16, fill byte, d, s, l int) {
	t.Helper()
	const span = movePages * mem.PageSize
	as, sw := newMoveFixture(t, states, fill)
	ref, refSw := newMoveFixture(t, states, fill)
	snap := make([]byte, span)
	if err := as.RawRead(MmapBase, snap); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(snap)
	copy(want[d:d+l], snap[s:s+l])

	if err := as.moveBytes(MmapBase+uint64(d), MmapBase+uint64(s), l); err != nil {
		t.Fatal(err)
	}
	checkUnbackedZero(t, as.Phys, "moveBytes")
	got := make([]byte, span)
	if err := as.RawRead(MmapBase, got); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("states %#x fill %#x move %d->%d (%d bytes): byte %d = %#x, want %#x",
			states, fill, s, d, l, i, got[i], want[i])
	}

	if err := ref.RawWrite(MmapBase+uint64(d), snap[s:s+l]); err != nil {
		t.Fatal(err)
	}
	checkUnbackedZero(t, ref.Phys, "RawWrite")
	// A backward walk admits pages, and so numbers their slots, in reverse.
	forward := s < d && d < s+l
	g, w := residency(as, !forward), residency(ref, !forward)
	if g != w || !forward && !slices.EqualFunc(sw.admits, refSw.admits, bytes.Equal) {
		t.Fatalf("states %#x fill %#x move %d->%d (%d bytes): residency %s with %d admits, whole-range bounce %s with %d",
			states, fill, s, d, l, g, len(sw.admits), w, len(refSw.admits))
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// clampMove maps raw offsets and a length onto the fixture's span.
func clampMove(dst, src, n uint16) (d, s, l int) {
	const span = movePages * mem.PageSize
	d, s = int(dst)%span, int(src)%span
	l = min(int(n), span-d, span-s)
	return d, s, l
}

// FuzzCopySwapArmed drives the mover with arbitrary moves over pages in
// every residency state (checkMove). The seed corpus covers forward,
// backward and no overlap, page-straddling segments on either side, and
// each state on each side.
func FuzzCopySwapArmed(f *testing.F) {
	for _, c := range []struct {
		states      uint16
		fill        byte
		dst, src, n uint16
	}{
		{0xaaaa, 0xff, 5 * 4096, 1000, 9000},             // resident, disjoint
		{0x0000, 0x00, 4096, 3 * 4096, 8192},             // demand-zero to demand-zero
		{0x5555, 0xff, 1040, 1000, 20000},                // swapped, forward overlap
		{0x5555, 0x5a, 1000, 1040, 20000},                // swapped, some pages zero, backward overlap
		{0x9264, 0xb7, 4096 - 24, 4096 - 64, 16400},      // mixed, page-straddling forward overlap
		{0x9264, 0xb7, 2*4096 + 100, 300, 7000},          // mixed, disjoint, misaligned
		{0x1e4b, 0x5a, 700, 4096 + 11, 3*4096 + 99},      // mixed, backward overlap
		{0x00ff, 0x0f, 4 * 4096, 0, 4 * 4096},            // resident into demand-zero
		{0x00ff, 0x0f, 0, 4 * 4096, 4 * 4096},            // demand-zero into resident
		{0x0055, 0x0f, 4*4096 + 100, 0, 4*4096 - 100},    // swapped into demand-zero: admits
		{0x0055, 0x0f, 4*4096 + 100, 2 * 4096, 3 * 4096}, // and forward overlap
		{0x2222, 0x33, 3000, 3000, 4096},                 // same address
		{0x6666, 0xcc, 100, 300, 64},                     // within one page
	} {
		f.Add(c.states, c.fill, c.dst, c.src, c.n)
	}
	f.Fuzz(func(t *testing.T, states uint16, fill byte, dst, src, n uint16) {
		d, s, l := clampMove(dst, src, n)
		checkMove(t, states, fill, d, s, l)
	})
}

// TestCopySwapArmedRandom runs checkMove on random moves, biased toward
// overlap, so plain go test covers more than the fuzz seeds.
func TestCopySwapArmedRandom(t *testing.T) {
	const span = movePages * mem.PageSize
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 400; i++ {
		states, fill := uint16(rng.Uint32()), byte(rng.Intn(256))
		s := rng.Intn(span)
		d := rng.Intn(span)
		if i%2 == 0 { // overlapping: dst within a few pages of src
			d = min(max(s+rng.Intn(4*mem.PageSize)-2*mem.PageSize, 0), span-1)
		}
		l := min(rng.Intn(span), span-d, span-s)
		checkMove(t, states, fill, d, s, l)
	}
}

// fixturePages is the span mapFixture maps.
const fixturePages = 32

// mapFixture maps fixturePages pages and writes none of them, on a
// swap-armed space (every page demand-zero) or a resident one (every
// frame unbacked).
func mapFixture(t testing.TB, swap bool) (*AddressSpace, *Env) {
	t.Helper()
	as := NewAddressSpace(1, mem.NewPhysMem(0))
	if swap {
		as.SetSwapper(newSlotSwapper())
	}
	if err := as.Map(MmapBase, fixturePages); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(sim.XeonGold6130())
	env.Cache = cache.MustNew(1<<15, 8, 64)
	return as, env
}

// copyFixture is mapFixture with every byte of the span nonzero, so a
// Copy moves bytes frame to frame rather than clearing its destination.
// On the swap-armed space every page sits in the tier until the Copy's
// charge faults it in.
func copyFixture(t testing.TB, swap bool) (*AddressSpace, *Env) {
	t.Helper()
	as, env := mapFixture(t, swap)
	p := make([]byte, fixturePages*mem.PageSize)
	for i := range p {
		p[i] = byte(i%251 + 1)
	}
	if err := as.RawWrite(MmapBase, p); err != nil {
		t.Fatal(err)
	}
	return as, env
}

// checkCopyBacked fails unless every destination page of the fixture's
// Copy is resident and backed: the move ran frame to frame.
func checkCopyBacked(t testing.TB, as *AddressSpace, what string) {
	t.Helper()
	for va := copyDst &^ mem.PageMask; va < copyDst+copyLen; va += mem.PageSize {
		if f, ok := as.Lookup(va); !ok || !as.Phys.Backed(f) {
			t.Fatalf("%s: destination page %#x not resident and backed after Copy", what, va)
		}
	}
}

// A 64 KiB forward-overlapping move with both ends off page boundaries.
const (
	copyDst = MmapBase + 4096 + 40
	copySrc = MmapBase + 8
	copyLen = 64 << 10
)

// TestCopyAllocatesNothing: Copy moves bytes without a host buffer on a
// resident space and on a swap-armed one, and a move that bounces
// through non-resident pages allocates nothing once the space's scratch
// page exists.
func TestCopyAllocatesNothing(t *testing.T) {
	for _, swap := range []bool{false, true} {
		as, env := copyFixture(t, swap)
		allocs := testing.AllocsPerRun(20, func() {
			if err := as.Copy(env, copyDst, copySrc, copyLen); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("swap-armed=%v: Copy allocates %v times per call, want 0", swap, allocs)
		}
		checkCopyBacked(t, as, fmt.Sprintf("swap-armed=%v", swap))
	}
	as, _ := newMoveFixture(t, 0x5555, 0xff) // every page swapped out
	allocs := testing.AllocsPerRun(20, func() {
		if err := as.moveBytes(MmapBase+1040, MmapBase+1000, 5*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("moving swapped-out pages allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkCopy(b *testing.B) {
	for _, swap := range []bool{false, true} {
		name := "resident"
		if swap {
			name = "swap-armed"
		}
		b.Run(name, func(b *testing.B) {
			as, env := copyFixture(b, swap)
			if err := as.Copy(env, copyDst, copySrc, copyLen); err != nil {
				b.Fatal(err) // fault every page in before timing
			}
			b.SetBytes(copyLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := as.Copy(env, copyDst, copySrc, copyLen); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			checkCopyBacked(b, as, name)
		})
	}
}
