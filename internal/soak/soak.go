// Package soak runs the memory-pressure endurance loop: repeated cycles
// of heap churn, full collections, and forced pressure episodes (ballast
// to the low watermark for an emergency collection, then to the min
// watermark for a fail-fast), with machine-level invariants checked after
// every cycle. The loop is bounded by host wall time — the CI smoke runs
// it for a few seconds, a nightly run for minutes — but each cycle is the
// same deterministic simulated work, so a failure reproduces from its
// cycle number and seed.
package soak

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

// Machine shape shared with the oom1 experiment: small enough that a
// pressure episode is a few thousand page mappings.
const (
	soakPhysFrames = 4096
	soakHeapBytes  = 4 << 20
	// ballastVA is the fixed base of the ballast mapping window, far above
	// any MapRegion allocation; reusing the same window every cycle means
	// its page tables are built once, keeping the frames-in-use baseline
	// flat across cycles.
	ballastVA = uint64(1) << 40
)

var soakWatermarks = mem.Watermarks{Min: 8, Low: 16, High: 32}

// swapEpisodePages is the per-cycle swap-out quota of the swap-mode
// pressure episode: ballast writes continue until the reclaimer has
// demoted at least this many pages to the tier. The episode is bounded
// by observed tier traffic, not by free frames — kswapd keeps restoring
// the pool above the low watermark, so a free-frame loop condition
// would never terminate.
const swapEpisodePages = 128

// goroutineSlack tolerates host-runtime goroutines that come and go
// outside our control; a real leak grows per cycle and blows past it.
const goroutineSlack = 4

// Config tunes a soak run.
type Config struct {
	// Collector is a jvm preset name built on the lisp2 engine (svagc,
	// svagc-memmove, copygc). Default svagc.
	Collector string
	// GCWorkers is the GC thread count (default 4).
	GCWorkers int
	// Duration is the host wall-time budget; at least two cycles always run
	// (one warm-up plus one checked). Default 2s.
	Duration time.Duration
	// Watchdog arms the per-phase GC deadline (0 = off).
	Watchdog sim.Time
	// Seed drives the churn shape (default 42).
	Seed int64
	// Swap, when enabled, arms the far-memory plane on the soak machine.
	// Each cycle then forces a swap-out/fault-in episode instead of the
	// min-watermark fail-fast (reclaim keeps allocation working),
	// and two extra leak invariants are checked per cycle: the tier holds
	// zero slots after the closing full GC, and frames-in-use equals the
	// heap's resident live prefix exactly. The zero value changes nothing.
	Swap swaptier.Config
	// Tenants, when > 1, selects the multi-tenant soak instead: that many
	// capped tenant JVMs churn in turn on the calling goroutine, with
	// per-tenant charge baselines and cap-isolation probes checked every
	// cycle. FailFasts then counts refused over-cap mappings.
	Tenants int
	// TenantCapFrames overrides the per-tenant cap in the multi-tenant
	// soak (default: twice the heap plus slack).
	TenantCapFrames int
	// Log, when set, receives a progress line per cycle.
	Log io.Writer
}

// Result summarises a completed soak.
type Result struct {
	Cycles      int
	Collections int
	Degraded    uint64 // swap→memmove and evacuate→slide fallbacks
	Stalls      uint64 // low-watermark mutator stalls
	Emergency   uint64 // emergency collections triggered by pressure
	FailFasts   uint64 // min-watermark structured allocation refusals
	SwapOuts    uint64 // pages the tier absorbed (swap mode)
	SwapIns     uint64 // pages faulted back from the tier (swap mode)
	Baseline    int    // frames-in-use invariant baseline
	SimTime     sim.Time
}

func (r *Result) String() string {
	s := fmt.Sprintf("%d cycles, %d collections (%d degraded moves), %d stalls, %d emergency GCs, %d fail-fasts, baseline %d frames, %v simulated",
		r.Cycles, r.Collections, r.Degraded, r.Stalls, r.Emergency, r.FailFasts, r.Baseline, r.SimTime)
	if r.SwapOuts > 0 || r.SwapIns > 0 {
		s += fmt.Sprintf(", %d swap-outs / %d swap-ins", r.SwapOuts, r.SwapIns)
	}
	return s
}

// Run executes the soak loop and returns an error on the first invariant
// violation (frame leak, goroutine growth, missing fail-fast, or a GC
// failure — including a watchdog abort, which is a finding, not a hang).
func Run(cfg Config) (*Result, error) {
	if cfg.Tenants > 1 {
		return runTenants(cfg)
	}
	collector := cfg.Collector
	if collector == "" {
		collector = jvm.CollectorSVAGC
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	workers := cfg.GCWorkers
	if workers <= 0 {
		workers = 4
	}

	swapMode := cfg.Swap.Enabled()
	m, err := machine.New(machine.Config{
		Cost:       sim.XeonGold6130(),
		PhysBytes:  soakPhysFrames << mem.PageShift,
		Watermarks: soakWatermarks,
		Swap:       cfg.Swap,
	})
	if err != nil {
		return nil, err
	}
	jcfg, ok := jvm.ConfigForDeadline(collector, soakHeapBytes, 1, workers, cfg.Watchdog)
	if !ok {
		return nil, fmt.Errorf("soak: unknown collector %q (want %v)", collector, jvm.CollectorNames())
	}
	j, err := jvm.New(m, jcfg)
	if err != nil {
		return nil, err
	}
	th := j.Thread(0)
	ballast := m.NewAddressSpace()
	rng := rand.New(rand.NewSource(seed))
	res := &Result{}
	// Swap mode materialises ballast pages through charged accesses (a
	// lazy Map consumes no frames, so an uncharged ballast would never
	// pressure the pool); bctx is the context those accesses bill.
	var bctx *machine.Context
	if swapMode {
		bctx = m.NewContext(0)
	}

	sizes := []int{96, 4096, 16 << 10, 64 << 10}
	var live []*gc.Root

	cycle := func(n int) error {
		// Churn: drop the previous cycle's survivors, allocate a fresh set.
		for _, r := range live {
			j.Roots.Remove(r)
		}
		live = live[:0]
		for i := 0; i < 48; i++ {
			spec := heap.AllocSpec{Payload: sizes[rng.Intn(len(sizes))], Class: uint16(1 + i%7)}
			r, err := th.AllocRooted(spec)
			if err != nil {
				return fmt.Errorf("cycle %d: churn alloc: %w", n, err)
			}
			if swapMode {
				// Non-zero live data, so demoted heap pages occupy real
				// tier slots instead of collapsing to swap-zero entries.
				if err := j.Heap.WritePayloadWords(th.Ctx, r.Obj, 0, 0,
					[]uint64{uint64(n)<<32 | uint64(i+1)}); err != nil {
					return fmt.Errorf("cycle %d: churn payload: %w", n, err)
				}
			}
			live = append(live, r)
		}
		if _, err := j.CollectNow(); err != nil {
			return fmt.Errorf("cycle %d: collection: %w", n, err)
		}

		if swapMode {
			// Swap episode: dirty ballast pages through charged writes
			// until the reclaimer has demoted a batch to the tier.
			st := m.SwapTier()
			startOut := st.Stats().OutPages
			mapped := 0
			for st.Stats().OutPages < startOut+swapEpisodePages {
				if mapped >= 4*soakPhysFrames {
					return fmt.Errorf("cycle %d: %d ballast writes forced only %d swap-outs (want %d)",
						n, mapped, st.Stats().OutPages-startOut, swapEpisodePages)
				}
				va := ballastVA + uint64(mapped)<<mem.PageShift
				if err := ballast.Map(va, 1); err != nil {
					return fmt.Errorf("cycle %d: ballast map: %w", n, err)
				}
				if err := ballast.WriteWord(&bctx.Env, va, uint64(n)<<32|uint64(mapped+1)); err != nil {
					return fmt.Errorf("cycle %d: ballast write: %w", n, err)
				}
				mapped++
			}
			// With a tier behind the pool, allocation keeps working under
			// reclaim pressure — direct reclaim, not fail-fast.
			if _, err := th.Alloc(heap.AllocSpec{Payload: 256}); err != nil {
				return fmt.Errorf("cycle %d: allocation under reclaim pressure failed: %w", n, err)
			}
			// Fault-in episode: every ballast word must survive its tier
			// round trip bit-exactly.
			for p := 0; p < mapped; p++ {
				va := ballastVA + uint64(p)<<mem.PageShift
				v, err := ballast.ReadWord(&bctx.Env, va)
				if err != nil {
					return fmt.Errorf("cycle %d: ballast read-back: %w", n, err)
				}
				if want := uint64(n)<<32 | uint64(p+1); v != want {
					return fmt.Errorf("cycle %d: ballast page %d corrupted across the tier: got %#x, want %#x",
						n, p, v, want)
				}
			}
			ballast.Unmap(ballastVA, mapped, true)
		} else {
			// Pressure episode: ballast to the low watermark and allocate —
			// the mutator must stall and trigger an emergency collection, not
			// fail.
			mapped := 0
			for m.Phys.FreeFrames() > soakWatermarks.Low {
				if err := ballast.Map(ballastVA+uint64(mapped)<<mem.PageShift, 1); err != nil {
					return fmt.Errorf("cycle %d: ballast to low: %w", n, err)
				}
				mapped++
			}
			if _, err := th.Alloc(heap.AllocSpec{Payload: 256}); err != nil {
				return fmt.Errorf("cycle %d: allocation at the low watermark failed (want stall): %w", n, err)
			}
			// Deeper: ballast to the min watermark — allocation must now fail
			// fast with the structured pressure error.
			for m.Phys.FreeFrames() > soakWatermarks.Min {
				if err := ballast.Map(ballastVA+uint64(mapped)<<mem.PageShift, 1); err != nil {
					return fmt.Errorf("cycle %d: ballast to min: %w", n, err)
				}
				mapped++
			}
			_, allocErr := th.Alloc(heap.AllocSpec{Payload: 256})
			if !errors.Is(allocErr, jvm.ErrMemoryPressure) {
				return fmt.Errorf("cycle %d: allocation at the min watermark returned %v, want ErrMemoryPressure", n, allocErr)
			}
			res.FailFasts++
			ballast.Unmap(ballastVA, mapped, true)
		}

		// Collect once more with pressure released so the next cycle starts
		// from a compacted heap.
		if _, err := j.CollectNow(); err != nil {
			return fmt.Errorf("cycle %d: post-episode collection: %w", n, err)
		}
		return nil
	}

	// Warm-up cycle: builds the ballast window's page tables and settles
	// the pool, then the invariant baselines are pinned.
	if err := cycle(0); err != nil {
		return res, err
	}
	res.Cycles = 1
	res.Baseline = int(m.Phys.Usage().InUse)
	gBase := runtime.NumGoroutine()

	start := time.Now()
	for n := 1; n == 1 || time.Since(start) < duration; n++ {
		var prevOut, prevIn uint64
		if swapMode {
			st := m.SwapTier().Stats()
			prevOut, prevIn = st.OutPages, st.InPages
		}
		if err := cycle(n); err != nil {
			return res, err
		}
		res.Cycles++
		if swapMode {
			// Invariant: the episode moved pages both ways, the closing
			// full GC emptied the tier (no orphaned slots, swapped-page
			// count back to zero), and every in-use frame is reachable
			// from a present PTE.
			st := m.SwapTier().Stats()
			if st.OutPages == prevOut || st.InPages == prevIn {
				return res, fmt.Errorf("cycle %d: swap episode inert: %d swap-outs, %d swap-ins this cycle",
					n, st.OutPages-prevOut, st.InPages-prevIn)
			}
			if got := m.SwappedPages(); got != 0 {
				return res, fmt.Errorf("cycle %d: %d pages still swapped after the closing full GC\n%s",
					n, got, m.MemReport())
			}
			if st.Slots != 0 || st.ZpoolUsed != 0 || st.FarUsed != 0 {
				return res, fmt.Errorf("cycle %d: orphaned tier slots after full GC: %+v", n, st)
			}
			if got, want := int(m.Phys.Usage().InUse), residentPages(j.AS)+residentPages(ballast); got != want {
				return res, fmt.Errorf("cycle %d: frame leak: %d frames in use, %d reachable from present PTEs\n%s",
					n, got, want, m.MemReport())
			}
		} else if got := int(m.Phys.Usage().InUse); got != res.Baseline {
			// Invariant: every frame the cycle took is back — the pool
			// returns to the warm baseline exactly, every cycle. (Swap mode
			// uses the PTE-exact check above instead: the resident set
			// legitimately varies with what the sweep drained.)
			return res, fmt.Errorf("cycle %d: frame leak: %d frames in use, baseline %d\n%s",
				n, got, res.Baseline, m.MemReport())
		}
		if rsv := m.Phys.Reserved(); rsv != 0 {
			return res, fmt.Errorf("cycle %d: reservation leak: %d frames still reserved", n, rsv)
		}
		// Invariant: the host goroutine count is flat (no leaked workers).
		if got := runtime.NumGoroutine(); got > gBase+goroutineSlack {
			return res, fmt.Errorf("cycle %d: goroutine growth: %d running, baseline %d", n, got, gBase)
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "soak: cycle %d ok (%d collections, %v simulated)\n",
				n, j.GCCount(""), j.AppTime())
		}
	}

	perf := j.TotalPerf()
	res.Collections = j.GCCount("")
	res.Degraded = j.GC.Stats().Degraded()
	res.Stalls = perf.PressureStalls
	res.Emergency = perf.EmergencyGCs
	res.SimTime = j.AppTime()
	if swapMode {
		st := m.SwapTier().Stats()
		res.SwapOuts, res.SwapIns = st.OutPages, st.InPages
	}
	return res, nil
}

// residentPages counts present PTEs — pages actually holding a frame —
// across one address space's tables.
func residentPages(as *mmu.AddressSpace) int {
	n := 0
	as.ForEachTable(func(_ uint64, pt *mmu.PTETable) bool {
		for i := 0; i < 512; i++ {
			if pt.Entry(i).Present {
				n++
			}
		}
		return true
	})
	return n
}
