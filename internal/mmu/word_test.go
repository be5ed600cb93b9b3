package mmu

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refTranslate and refChargeWord are the word-access path before it was
// fused and its charges pre-quantised: a translation, then a separate LLC
// charge, each advancing the clock by its float64 cost-model figure on
// every call. They are the reference the fused wordAccess and closed-form
// settlement are held to.
func refTranslate(as *AddressSpace, env *Env, va uint64) (uint64, error) {
	vpn := VPN(va)
	env.Perf.TLBLookups++
	f, ok := env.TLB.Lookup(as.ASID, vpn)
	if !ok {
		env.Perf.TLBMisses++
		env.Perf.PTWalks++
		env.Clock.Advance(env.Cost.WalkNs())
		f, ok = as.Lookup(va)
		if !ok && as.swapper != nil {
			var err error
			if f, ok, err = as.swapper.PageIn(env, as, va); err != nil {
				return 0, err
			}
		}
		if !ok {
			return 0, badVA("translate", va)
		}
		if as.swapper != nil {
			as.markAccessed(va)
		}
		env.TLB.Insert(as.ASID, vpn, f)
	} else {
		env.Clock.Advance(env.Cost.TLBHitNs)
	}
	return uint64(f)<<mem.PageShift | va&mem.PageMask, nil
}

func refChargeWord(env *Env, pa uint64, write bool) {
	env.Perf.CacheRefs++
	if env.Cache != nil && env.Cache.Access(pa) {
		env.Clock.Advance(env.Cost.CacheHitNs)
		return
	}
	env.Perf.CacheMisses++
	lat := float64(env.Cost.DRAMAccessNs)
	if env.NUMA != nil {
		lat = env.NUMA.LatencyAt(pa)
	} else if env.Latency != nil {
		lat *= env.Latency()
	}
	if write {
		lat *= env.Cost.WriteMult()
	}
	env.Clock.Advance(sim.Time(lat))
}

// refWord is one unfused ReadWord (data == nil) or WriteWord: it returns
// the word read, or stores *data.
func refWord(as *AddressSpace, env *Env, va uint64, write bool, data *uint64) (uint64, error) {
	pa, err := refTranslate(as, env, va)
	if err != nil {
		return 0, err
	}
	refChargeWord(env, pa, write)
	frame := as.Phys.Frame(mem.FrameID(pa >> mem.PageShift))
	off := pa & mem.PageMask
	if write {
		env.Perf.BytesWrite += 8
		if data != nil {
			binary.LittleEndian.PutUint64(frame[off:off+8], *data)
		}
		return 0, nil
	}
	env.Perf.BytesRead += 8
	return binary.LittleEndian.Uint64(frame[off : off+8]), nil
}

// refRun settles a run word by word on the unfused reference, counting
// it the way ChargeRun/ReadRun/WriteRun do.
func refRun(as *AddressSpace, env *Env, r Run, data []uint64) error {
	env.Perf.ChargeRuns++
	env.Perf.RunWords += uint64(r.Words)
	if r.Words > 0 && as.Swapped() {
		env.Perf.RunFallbacks++
	}
	for i := 0; i < r.Words; i++ {
		va := r.VA + uint64(i*r.stride())
		var p *uint64
		if data != nil {
			p = &data[i]
		}
		v, err := refWord(as, env, va, r.Write, p)
		if err != nil {
			return err
		}
		if data != nil && !r.Write {
			data[i] = v
		}
	}
	return nil
}

// testSwapper demand-faults pages in for the swap-armed fixture: every
// page-in zero-fills a fresh frame and charges a cost that depends on the
// faulting clock's current reading, as the real tier's far-device charge
// does, so a charge landing after the page-in instead of before it shows
// up in the clock. With maxResident set, a page-in past that many
// resident pages first evicts the oldest, as reclaim would.
type testSwapper struct {
	pageIns     int
	maxResident int      // 0: unbounded
	resident    []uint64 // faulted-in VAs, oldest first (maxResident > 0 only)
}

func (s *testSwapper) PageIn(env *Env, as *AddressSpace, va uint64) (mem.FrameID, bool, error) {
	pt := as.root.walk(va, false)
	if pt == nil {
		return mem.NilFrame, false, nil
	}
	e := pt.Entry(PTEIndex(va))
	if e.State != SwapZero {
		return mem.NilFrame, false, nil
	}
	if s.maxResident > 0 {
		if len(s.resident) == s.maxResident {
			s.evict(as, env, s.resident[0])
			s.resident = s.resident[1:]
		}
		s.resident = append(s.resident, va)
	}
	f, err := as.Phys.AllocFrame()
	if err != nil {
		return mem.NilFrame, false, err
	}
	clear(as.Phys.Frame(f)[:])
	e.Frame, e.Present, e.State = f, true, SwapNone
	s.pageIns++
	env.Clock.Advance(1000 + sim.Time(math.Mod(float64(env.Clock.Now()), 97.25)))
	return f, true, nil
}

func (s *testSwapper) FreeSlot(uint32)                 {}
func (s *testSwapper) ReadSlot(uint32, int, []byte)    {}
func (s *testSwapper) WriteSlot(uint32, int, []byte)   {}
func (s *testSwapper) AdmitPage([]byte) (uint32, bool) { return 0, false }

// evict drops va's page back to demand-zero and out of env's TLB, so the
// next access faults it in again.
func (s *testSwapper) evict(as *AddressSpace, env *Env, va uint64) {
	e := as.root.walk(va, false).Entry(PTEIndex(va))
	if !e.Present {
		return
	}
	as.Phys.FreeFrame(e.Frame)
	*e = PTE{Frame: mem.NilFrame, State: SwapZero}
	env.TLB.FlushPage(as.ASID, VPN(va))
}

// wordMachine is one of the configurations the fused word path is
// checked on.
type wordMachine struct {
	name string
	cost func() *sim.CostModel
	numa bool // odd frames remote (fakeNUMA)
	swap bool // demand-zero mappings faulted in through testSwapper
}

var wordMachines = []wordMachine{
	{name: "flat", cost: sim.XeonGold6130},
	{name: "interleave-2s", cost: sim.XeonGold6130, numa: true},
	{name: "nvm", cost: sim.XeonGold6130NVM},
	{name: "swap", cost: sim.XeonGold6130, swap: true},
}

// wordFixture is one side of a fused/unfused comparison.
type wordFixture struct {
	as   *AddressSpace
	env  *Env
	numa *fakeNUMA
	swap *testSwapper
}

const wordPages = 24

func newWordFixture(t *testing.T, m wordMachine) wordFixture {
	t.Helper()
	fx := wordFixture{as: NewAddressSpace(1, mem.NewPhysMem(0)), env: NewEnv(m.cost())}
	if m.swap {
		fx.swap = &testSwapper{}
		fx.as.SetSwapper(fx.swap)
	}
	if err := fx.as.Map(MmapBase, wordPages); err != nil {
		t.Fatal(err)
	}
	fx.env.Cache = cache.MustNew(1<<13, 4, 64) // small: random traffic evicts
	if m.numa {
		fx.numa = &fakeNUMA{}
		fx.env.NUMA = fx.numa
	} else {
		fx.env.Latency = func() float64 { return 1.37 } // contended bus
	}
	return fx
}

// TestWordAccessMatchesUnfused replays random ReadWord/WriteWord
// sequences, with TLB flushes and (on the swap machine) evictions mixed
// in, through the fused path and through the unfused reference. After
// every op the clocks, the full perf counters, the values read and
// whether the access hit the LLC must agree; at the end, the TLBs, the
// LLCs and the NUMA views' counts must too.
func TestWordAccessMatchesUnfused(t *testing.T) {
	for _, m := range wordMachines {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			fused, ref := newWordFixture(t, m), newWordFixture(t, m)
			for op := 0; op < 20_000; op++ {
				// Mostly a few hot pages, so TLB and LLC hits dominate as
				// in real traffic.
				page := rng.Intn(4)
				if rng.Intn(4) == 0 {
					page = rng.Intn(wordPages)
				}
				va := MmapBase + uint64(page)<<mem.PageShift + uint64(rng.Intn(mem.PageSize/8))*8
				switch k := rng.Intn(16); {
				case k == 0:
					fused.env.TLB.FlushPage(1, VPN(va))
					ref.env.TLB.FlushPage(1, VPN(va))
					continue
				case k == 1 && m.swap:
					fused.swap.evict(fused.as, fused.env, va)
					ref.swap.evict(ref.as, ref.env, va)
					continue
				case k < 8:
					v := rng.Uint64()
					if err := fused.as.WriteWord(fused.env, va, v); err != nil {
						t.Fatal(err)
					}
					if _, err := refWord(ref.as, ref.env, va, true, &v); err != nil {
						t.Fatal(err)
					}
				default:
					got, err := fused.as.ReadWord(fused.env, va)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refWord(ref.as, ref.env, va, false, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("op %d: ReadWord(%#x) = %#x, reference %#x", op, va, got, want)
					}
				}
				if *fused.env.Clock != *ref.env.Clock {
					t.Fatalf("op %d (va %#x): clock %v, reference %v", op, va,
						fused.env.Clock.Now(), ref.env.Clock.Now())
				}
				if *fused.env.Perf != *ref.env.Perf {
					t.Fatalf("op %d (va %#x): perf diverges:\nfused:     %+v\nreference: %+v",
						op, va, *fused.env.Perf, *ref.env.Perf)
				}
			}
			if !reflect.DeepEqual(fused.env.TLB, ref.env.TLB) {
				t.Error("TLB contents diverge")
			}
			if !reflect.DeepEqual(fused.env.Cache, ref.env.Cache) {
				t.Error("LLC state diverges")
			}
			if m.numa && (*fused.numa != *ref.numa || fused.numa.remote == 0) {
				t.Errorf("NUMA view counts: fused %+v, reference %+v (want equal, with remote accesses)",
					*fused.numa, *ref.numa)
			}
			if m.swap && (fused.swap.pageIns != ref.swap.pageIns || fused.swap.pageIns < wordPages) {
				t.Errorf("page-ins: fused %d, reference %d (want equal, and repeated)",
					fused.swap.pageIns, ref.swap.pageIns)
			}
			p := fused.env.Perf
			if p.CacheMisses == 0 || p.CacheMisses == p.CacheRefs || p.TLBMisses == 0 {
				t.Errorf("traffic missed a case: %d LLC misses of %d refs, %d TLB misses",
					p.CacheMisses, p.CacheRefs, p.TLBMisses)
			}
		})
	}
}

// BenchmarkWordAccess is the regression benchmark for the fused word
// path: ReadWord/WriteWord on a TLB and LLC hit, on an LLC miss (TLB
// hit), and on a TLB miss (a page-table walk every access).
func BenchmarkWordAccess(b *testing.B) {
	tlbSlots := uint64(NewTLB(DefaultTLBEntries).Size())
	bench := func(b *testing.B, pages int, va func(i int) uint64) {
		as := NewAddressSpace(1, mem.NewPhysMem(0))
		if err := as.Map(MmapBase, pages); err != nil {
			b.Fatal(err)
		}
		env := NewEnv(sim.XeonGold6130())
		env.Cache = cache.MustNew(1<<15, 8, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i&1 == 0 {
				if _, err := as.ReadWord(env, va(i)); err != nil {
					b.Fatal(err)
				}
			} else if err := as.WriteWord(env, va(i), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		bench(b, 1, func(i int) uint64 { return MmapBase + uint64(i&7)*8 })
	})
	b.Run("llc-miss", func(b *testing.B) {
		// 16 pages of lines cycled in order: twice the LLC, so LRU
		// misses every line, while the 16 pages stay in the TLB.
		bench(b, 16, func(i int) uint64 { return MmapBase + uint64(i&1023)*64 })
	})
	b.Run("tlb-miss", func(b *testing.B) {
		// Two pages that share a slot of the direct-mapped TLB.
		bench(b, int(tlbSlots)+1, func(i int) uint64 {
			return MmapBase + uint64(i&1)*tlbSlots<<mem.PageShift
		})
	})
}
