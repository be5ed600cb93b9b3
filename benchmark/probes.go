package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/benchmark/quartiles"
	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

// The layer probes time single public calls of one layer at a fixed
// iteration count, on fixtures built for the probe alone (SingleDriver
// machines, as every workload run uses). They run after the traced passes
// of a traced run and measure the host cost of one operation, so a change
// to a layer can be read against that layer's host_share on the workload
// where the share is largest.

// probe is one layer micro-measurement.
type probe struct {
	name  string
	unit  string  // "ns" per unit of work, or "ms" per operation
	iters int     // operations per repetition
	per   float64 // units of work (pages, words, lines, requests) per operation
	// setup builds a fresh fixture for one repetition, untimed, and
	// returns the operation to time.
	setup func() (func(i int) error, error)
}

const probeReps = 5

// runProbes times every probe and returns its median over probeReps
// repetitions, by metric name.
func runProbes() (map[string]metric, error) {
	out := map[string]metric{}
	for _, p := range probes() {
		per := make([]float64, 0, probeReps)
		for r := 0; r < probeReps; r++ {
			op, err := p.setup()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			t0 := time.Now()
			for i := 0; i < p.iters; i++ {
				if err := op(i); err != nil {
					return nil, fmt.Errorf("probe %s: %w", p.name, err)
				}
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(p.iters)/p.per)
		}
		v := quartiles.Median(per)
		if p.unit == "ms" {
			v /= 1e6
		}
		out[p.name] = metric{v, p.unit}
	}
	return out, nil
}

// Probe fixture sizes: a 2 MiB-aligned region of probeRegion pages, whose
// halves are the source and destination of moves and swaps.
const (
	probeRegion = 1024
	probeHalf   = probeRegion / 2
)

type mmuFixture struct {
	ctx *machine.Context
	as  *mmu.AddressSpace
	k   *kernel.Kernel
	va  uint64 // first page of the region, 2 MiB aligned
}

func newMMUFixture() (*mmuFixture, error) {
	m, err := machine.New(machine.Config{Cost: sim.XeonGold6130(), SingleDriver: true})
	if err != nil {
		return nil, err
	}
	as := m.NewAddressSpace()
	raw, err := as.MapRegion(probeRegion + int(mmu.PMDSpan>>mem.PageShift))
	if err != nil {
		return nil, err
	}
	va := (raw + mmu.PMDSpan - 1) &^ (mmu.PMDSpan - 1)
	return &mmuFixture{ctx: m.NewContext(0), as: as, k: kernel.New(m), va: va}, nil
}

func (f *mmuFixture) page(i int) uint64 { return f.va + uint64(i)<<mem.PageShift }

// withFixture adapts an operation on a fresh mmuFixture to probe.setup.
func withFixture(op func(f *mmuFixture, i int) error) func() (func(int) error, error) {
	return func() (func(int) error, error) {
		f, err := newMMUFixture()
		if err != nil {
			return nil, err
		}
		return func(i int) error { return op(f, i) }, nil
	}
}

// swapPage is a page that compresses about 4:1 (one word in four nonzero),
// so the zpool stores it rather than discarding it as zero.
func swapPage() []byte {
	p := make([]byte, mem.PageSize)
	for w := 0; w < mem.PageSize/8; w += 4 {
		binary.LittleEndian.PutUint64(p[8*w:], 0x9e3779b97f4a7c15^uint64(w))
	}
	return p
}

const swapProbePages = 2000

func newProbeTier() *swaptier.Tier {
	return swaptier.New(swaptier.Config{ZpoolBytes: 64 << 20}, sim.XeonGold6130())
}

func probes() []probe {
	cost := sim.XeonGold6130()
	return []probe{
		{name: "cache.probe.access_ns", unit: "ns", iters: 200_000, per: 1,
			setup: func() (func(int) error, error) {
				c, err := cache.New(2<<20, 16, cost.CacheLineSize)
				if err != nil {
					return nil, err
				}
				c.SetExclusive(true)
				// Lines scattered over 4x the cache: a mix of hits and misses.
				addrs := make([]uint64, 1<<14)
				for i := range addrs {
					addrs[i] = (uint64(i) * 2654435761 % (8 << 20)) &^ 63
				}
				return func(i int) error { c.Access(addrs[i&(len(addrs)-1)]); return nil }, nil
			}},
		{name: "cache.probe.range_ns_per_line", unit: "ns", iters: 4000, per: mem.PageSize / 64,
			setup: func() (func(int) error, error) {
				c, err := cache.New(2<<20, 16, cost.CacheLineSize)
				if err != nil {
					return nil, err
				}
				c.SetExclusive(true)
				return func(i int) error { c.AccessRange(uint64(i&4095)<<mem.PageShift, mem.PageSize); return nil }, nil
			}},
		{name: "mmu.probe.tlb_lookup_ns", unit: "ns", iters: 500_000, per: 1,
			setup: func() (func(int) error, error) {
				t := mmu.NewTLB(mmu.DefaultTLBEntries)
				for v := 0; v < t.Size(); v++ {
					t.Insert(1, uint64(v), mem.FrameID(v+1))
				}
				// VPNs past the TLB size alias resident slots: half the lookups miss.
				mask := 2*t.Size() - 1
				return func(i int) error { t.Lookup(1, uint64(i&mask)); return nil }, nil
			}},
		// A full TLB holding another ASID: the scan every core a shootdown
		// reaches performs when it holds no entry of the flushed space.
		{name: "mmu.probe.flush_asid_ns", unit: "ns", iters: 20_000, per: 1,
			setup: func() (func(int) error, error) {
				t := mmu.NewTLB(mmu.DefaultTLBEntries)
				for v := 0; v < t.Size(); v++ {
					t.Insert(1, uint64(v), mem.FrameID(v+1))
				}
				return func(int) error { t.FlushASID(2); return nil }, nil
			}},
		{name: "mmu.probe.translate_ns", unit: "ns", iters: 200_000, per: 1,
			setup: withFixture(func(f *mmuFixture, i int) error {
				_, err := f.as.Translate(&f.ctx.Env, f.page(i%probeRegion))
				return err
			})},
		{name: "mmu.probe.read_word_ns", unit: "ns", iters: 200_000, per: 1,
			setup: withFixture(func(f *mmuFixture, i int) error {
				_, err := f.as.ReadWord(&f.ctx.Env, f.va+uint64(i*64)%(probeRegion<<mem.PageShift))
				return err
			})},
		{name: "mmu.probe.charge_run_ns_per_word", unit: "ns", iters: 4000, per: mem.PageSize / 8,
			setup: withFixture(func(f *mmuFixture, i int) error {
				return f.ctx.ChargeRun(f.as, mmu.Run{VA: f.page(i % probeRegion), Words: mem.PageSize / 8})
			})},
		{name: "mmu.probe.read_words_ns_per_word", unit: "ns", iters: 4000, per: mem.PageSize / 8,
			setup: func() (func(int) error, error) {
				f, err := newMMUFixture()
				if err != nil {
					return nil, err
				}
				buf := make([]uint64, mem.PageSize/8)
				return func(i int) error { return f.as.ReadWords(&f.ctx.Env, f.page(i%probeRegion), buf, false) }, nil
			}},
		{name: "mmu.probe.copy_ns_per_page", unit: "ns", iters: 4000, per: 1,
			setup: withFixture(func(f *mmuFixture, i int) error {
				return f.as.Copy(&f.ctx.Env, f.page(probeHalf+i%probeHalf), f.page(i%probeHalf), mem.PageSize)
			})},
		{name: "sim.probe.advance_ns", unit: "ns", iters: 1_000_000, per: 1,
			setup: func() (func(int) error, error) {
				c := sim.NewClock(0)
				return func(int) error { c.Advance(1.25); return nil }, nil
			}},
		{name: "kernel.probe.swapva_1p_ns", unit: "ns", iters: 300, per: 1,
			setup: withFixture(func(f *mmuFixture, i int) error {
				p := i % probeHalf
				return f.k.SwapVA(f.ctx, f.as, f.page(p), f.page(probeHalf+p), 1, kernel.DefaultOptions())
			})},
		{name: "kernel.probe.swapva_16p_ns", unit: "ns", iters: 300, per: 1,
			setup: withFixture(func(f *mmuFixture, i int) error {
				p := 16 * (i % (probeHalf / 16))
				return f.k.SwapVA(f.ctx, f.as, f.page(p), f.page(probeHalf+p), 16, kernel.DefaultOptions())
			})},
		{name: "kernel.probe.swapva_512p_ns_per_page", unit: "ns", iters: 40, per: probeHalf,
			setup: withFixture(func(f *mmuFixture, _ int) error {
				return f.k.SwapVA(f.ctx, f.as, f.page(0), f.page(probeHalf), probeHalf, kernel.DefaultOptions())
			})},
		{name: "kernel.probe.swapvavec_ns_per_req", unit: "ns", iters: 60, per: 64,
			setup: func() (func(int) error, error) {
				f, err := newMMUFixture()
				if err != nil {
					return nil, err
				}
				reqs := make([]kernel.SwapReq, 64)
				for k := range reqs {
					reqs[k] = kernel.SwapReq{VA1: f.page(k), VA2: f.page(probeHalf + k), Pages: 1}
				}
				return func(int) error {
					_, err := f.k.SwapVAVec(f.ctx, f.as, reqs, kernel.DefaultOptions())
					return err
				}, nil
			}},
		{name: "kernel.probe.memmove_ns_per_page", unit: "ns", iters: 1000, per: 16,
			setup: withFixture(func(f *mmuFixture, i int) error {
				p := 16 * (i % (probeHalf / 16))
				return f.k.Memmove(f.ctx, f.as, f.page(probeHalf+p), f.page(p), 16*mem.PageSize)
			})},
		// Fresh frames, as jvm.New maps them: each allocates its storage.
		{name: "mem.probe.alloc_frame_ns", unit: "ns", iters: 4096, per: 1,
			setup: func() (func(int) error, error) {
				pm := mem.NewPhysMem(0)
				return func(int) error { _, err := pm.AllocFrame(); return err }, nil
			}},
		{name: "swaptier.probe.pageout_ns", unit: "ns", iters: swapProbePages, per: 1,
			setup: func() (func(int) error, error) {
				t, env, page := newProbeTier(), mmu.NewEnv(cost), swapPage()
				return func(int) error { _, _, err := t.PageOut(env, page); return err }, nil
			}},
		{name: "swaptier.probe.pagein_ns", unit: "ns", iters: swapProbePages, per: 1,
			setup: func() (func(int) error, error) {
				t, env, page := newProbeTier(), mmu.NewEnv(cost), swapPage()
				ids := make([]uint32, swapProbePages)
				for i := range ids {
					id, _, err := t.PageOut(env, page)
					if err != nil {
						return nil, err
					}
					ids[i] = id
				}
				return func(i int) error { t.PageIn(env, ids[i], page); return nil }, nil
			}},
		{name: "machine.probe.new_ms", unit: "ms", iters: 20, per: 1,
			setup: func() (func(int) error, error) {
				return func(int) error {
					_, err := machine.New(machine.Config{Cost: cost, SingleDriver: true})
					return err
				}, nil
			}},
	}
}
