package mmu

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem"
)

// checkUnbackedZero fails when an unbacked frame of pm reads nonzero
// through View: some code wrote through a View, into the page every
// unbacked frame shares.
func checkUnbackedZero(t testing.TB, pm *mem.PhysMem, what string) {
	t.Helper()
	for id := mem.FrameID(1); int(id) <= pm.Usage().Grown; id++ {
		if !pm.Backed(id) && !mem.AllZero(pm.View(id)[:]) {
			t.Fatalf("%s: unbacked frame %d reads nonzero: the shared zero page was written", what, id)
		}
	}
}

// TestZeroWritesBackNothing pins the backing rule of the three byte
// writers, WriteStream, Copy and RawWrite: nonzero bytes back the
// destination frame; zeros give a whole page's host page back, leave an
// unbacked frame unbacked and clear a backed one in place. Each case
// checks the destination's Backed and bytes, and that Copy left its
// source's backing as it was.
func TestZeroWritesBackNothing(t *testing.T) {
	const (
		dstVA = MmapBase
		srcVA = MmapBase + 4*mem.PageSize
	)
	writers := map[string]func(as *AddressSpace, env *Env, va uint64, p []byte) error{
		"WriteStream": func(as *AddressSpace, env *Env, va uint64, p []byte) error {
			return as.WriteStream(env, va, p, false)
		},
		"Copy": func(as *AddressSpace, env *Env, va uint64, p []byte) error {
			if err := as.RawWrite(srcVA, p); err != nil {
				return err
			}
			return as.Copy(env, va, srcVA, len(p))
		},
		"RawWrite": func(as *AddressSpace, env *Env, va uint64, p []byte) error {
			return as.RawWrite(va, p)
		},
	}
	for name, write := range writers {
		for _, zero := range []bool{true, false} {
			for _, whole := range []bool{true, false} {
				for _, backed := range []bool{true, false} {
					what := fmt.Sprintf("%s zero=%v whole=%v backed=%v", name, zero, whole, backed)
					as, env := mapFixture(t, false)
					dst, _ := as.Lookup(dstVA)
					src, _ := as.Lookup(srcVA)
					want := make([]byte, mem.PageSize)
					if backed {
						for i := range want {
							want[i] = 0x11
						}
						copy(as.Phys.Frame(dst)[:], want)
					}
					off, n := 100, 200
					if whole {
						off, n = 0, mem.PageSize
					}
					p := make([]byte, n)
					if !zero {
						for i := range p {
							p[i] = byte(i | 1)
						}
					}
					copy(want[off:], p)
					if err := write(as, env, dstVA+uint64(off), p); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					wantBacked := !zero || backed && !whole
					if got := as.Phys.Backed(dst); got != wantBacked {
						t.Errorf("%s: Backed = %v, want %v", what, got, wantBacked)
					}
					if got := as.Phys.View(dst)[:]; !bytes.Equal(got, want) {
						i := firstDiff(got, want)
						t.Errorf("%s: byte %d = %#x, want %#x", what, i, got[i], want[i])
					}
					if name == "Copy" && as.Phys.Backed(src) == zero {
						t.Errorf("%s: Copy source Backed = %v, want %v", what, zero, !zero)
					}
					checkUnbackedZero(t, as.Phys, what)
				}
			}
		}
	}
}

// BenchmarkZeroStream times a WriteStream of zeros, the heap's zeroing of
// a fresh object, over 16 frames: whole pages and a 2 KiB middle of each
// page, on unbacked frames (left as they are) and backed ones (cleared in
// place, or unbacked; the whole-page case backs them again each
// iteration with one nonzero word per page, from the spare pages).
func BenchmarkZeroStream(b *testing.B) {
	const pages = 16
	zeros := make([]byte, pages*mem.PageSize)
	for _, backed := range []bool{false, true} {
		for _, whole := range []bool{true, false} {
			b.Run(fmt.Sprintf("backed=%v/whole=%v", backed, whole), func(b *testing.B) {
				as, env := mapFixture(b, false)
				back := func() {
					for i := range pages {
						if err := as.WriteWord(env, MmapBase+uint64(i)*mem.PageSize, 1); err != nil {
							b.Fatal(err)
						}
					}
				}
				if backed {
					back()
				}
				b.SetBytes(int64(len(zeros)))
				if !whole {
					b.SetBytes(pages * 2048)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if !whole {
						for i := range pages {
							va := MmapBase + uint64(i)*mem.PageSize + 1024
							if err := as.WriteStream(env, va, zeros[:2048], false); err != nil {
								b.Fatal(err)
							}
						}
						continue
					}
					if backed {
						back()
					}
					if err := as.WriteStream(env, MmapBase, zeros, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
