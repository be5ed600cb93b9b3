package bench

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// microFixture is a machine and a mover over one address space with two
// mapped regions of the same page count.
type microFixture struct {
	m        *machine.Machine
	mv       core.Mover
	va1, va2 uint64
}

// onMicroFixture builds a fixture on a shape machine with regions of the
// given page count, in a machine slot, and runs body on it; body returns
// the simulated time it measured. The figures call it one cell at a time,
// so it lists each cell's tracer as it goes.
func onMicroFixture(opt Options, shape machine.Config, pages int, body func(*microFixture) (sim.Time, error)) error {
	return opt.hold(func() (sim.Time, error) {
		m, err := opt.NewMachine(shape)
		if err != nil {
			return 0, err
		}
		opt.record(m.Tracer())
		as := m.NewAddressSpace()
		va1, err := as.MapRegion(pages)
		if err != nil {
			return 0, err
		}
		va2, err := as.MapRegion(pages)
		if err != nil {
			return 0, err
		}
		return body(&microFixture{m: m, mv: core.Mover{K: kernel.New(m), AS: as}, va1: va1, va2: va2})
	})
}

// Fig6Aggregation reproduces Fig. 6: the cost of N independent small
// swaps issued as N separate SwapVA calls versus one aggregated
// (vectored) call, swept over the per-request page count.
func Fig6Aggregation(opt Options) (*Result, error) {
	cost := cmp.Or(opt.Cost, sim.CoreI5_7600()) // the paper measures Fig. 6 on the i5
	perReq := []int{1, 2, 4, 8, 16}
	if opt.Quick {
		perReq = []int{1, 8}
	}
	const nReqs = 32
	res := &Result{
		ID:     "fig6",
		Title:  "Aggregated vs separated SwapVA calls (" + cost.Name + ")",
		Paper:  "aggregation amortises the per-call cost; the gap shrinks as per-request size grows",
		Header: []string{"pages/req", "separated", "aggregated", "speedup"},
	}
	prevSpeedup := 0.0
	for i, pages := range perReq {
		var sep, agg sim.Time
		err := onMicroFixture(opt, machine.Config{Cost: cost}, pages*nReqs, func(f *microFixture) (sim.Time, error) {
			reqs := make([]kernel.SwapReq, nReqs)
			for r := range reqs {
				off := uint64(r*pages) << 12
				reqs[r] = kernel.SwapReq{VA1: f.va1 + off, VA2: f.va2 + off, Pages: pages}
			}
			sepCtx := f.m.NewContext(0)
			for _, r := range reqs {
				if err := f.mv.Swap(sepCtx, r.VA1, r.VA2, r.Pages, kernel.DefaultOptions()); err != nil {
					return 0, err
				}
			}
			aggCtx := f.m.NewContext(0)
			if err := f.mv.SwapVec(aggCtx, reqs, kernel.DefaultOptions()); err != nil {
				return 0, err
			}
			sep, agg = sepCtx.Clock.Now(), aggCtx.Clock.Now()
			return sep + agg, nil
		})
		if err != nil {
			return nil, err
		}
		speedup := stats.Ratio(float64(sep), float64(agg))
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pages), sep.String(), agg.String(), stats.X(speedup),
		})
		if i > 0 && speedup >= prevSpeedup {
			res.Notes = append(res.Notes,
				fmt.Sprintf("speedup did not shrink at %d pages/req (expected monotone decline)", pages))
		}
		prevSpeedup = speedup
	}
	return res, nil
}

// Fig8PMDCaching reproduces Fig. 8: SwapVA with and without PMD caching
// across multi-page copy sizes.
func Fig8PMDCaching(opt Options) (*Result, error) {
	cost := cmp.Or(opt.Cost, sim.CoreI5_7600()) // Fig. 8 is also an i5 microbenchmark
	sizes := []int{8, 16, 32, 64, 128, 256, 512}
	if opt.Quick {
		sizes = []int{16, 128}
	}
	res := &Result{
		ID:     "fig8",
		Title:  "PMD caching benefit (" + cost.Name + ")",
		Paper:  "up to 52.48% improvement, 36.73% on average for multi-page copies",
		Header: []string{"pages", "no-cache", "cached", "improvement"},
	}
	var improvements []float64
	for _, pages := range sizes {
		var off, on sim.Time
		err := onMicroFixture(opt, machine.Config{Cost: cost}, pages, func(f *microFixture) (sim.Time, error) {
			withOpts := kernel.DefaultOptions()
			withOpts.Flush = kernel.FlushLocalOnly // isolate the walk cost
			withoutOpts := withOpts
			withoutOpts.PMDCaching = false

			offCtx := f.m.NewContext(0)
			if err := f.mv.Swap(offCtx, f.va1, f.va2, pages, withoutOpts); err != nil {
				return 0, err
			}
			onCtx := f.m.NewContext(0)
			if err := f.mv.Swap(onCtx, f.va1, f.va2, pages, withOpts); err != nil {
				return 0, err
			}
			off, on = offCtx.Clock.Now(), onCtx.Clock.Now()
			return off + on, nil
		})
		if err != nil {
			return nil, err
		}
		impr := 1 - float64(on)/float64(off)
		improvements = append(improvements, impr)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pages), off.String(), on.String(), stats.Pct(impr),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured: max %s, mean %s improvement",
			stats.Pct(stats.Max(improvements)), stats.Pct(stats.Mean(improvements))))
	return res, nil
}

// Fig9MultiCore reproduces Fig. 9: moving 100 live swappable objects with
// per-call shootdown broadcasts versus the pinned single-shootdown mode,
// as the online core count grows.
func Fig9MultiCore(opt Options) (*Result, error) {
	coreCounts := []int{1, 2, 4, 8, 16, 32}
	if opt.Quick {
		coreCounts = []int{2, 32}
	}
	const objects, pagesPer = 100, 16
	res := &Result{
		ID:     "fig9",
		Title:  "Multi-core optimisations to SwapVA (100 swappable objects)",
		Paper:  "Eq. 2: IPIs fall from l*c to c; the unoptimised cost grows with core count, the pinned cost stays flat",
		Header: []string{"cores", "unoptimized", "pinned", "gain", "ipis-unopt", "ipis-pinned"},
	}
	for _, cores := range coreCounts {
		cost := *opt.cost()
		cost.Cores = cores
		run := func(pinned bool) (t sim.Time, ipis uint64, err error) {
			err = onMicroFixture(opt, machine.Config{Cost: &cost}, objects*pagesPer, func(f *microFixture) (sim.Time, error) {
				ctx := f.m.NewContext(0)
				opts := kernel.DefaultOptions()
				if pinned {
					ctx.Pin()
					ctx.ShootdownAll(f.mv.AS.ASID)
					opts.Flush = kernel.FlushLocalOnly
				}
				for i := 0; i < objects; i++ {
					off := uint64(i*pagesPer) << 12
					if err := f.mv.Swap(ctx, f.va1+off, f.va2+off, pagesPer, opts); err != nil {
						return 0, err
					}
				}
				if pinned {
					ctx.Unpin()
				}
				t, ipis = ctx.Clock.Now(), ctx.Perf.IPIsSent
				return t, nil
			})
			return t, ipis, err
		}
		unopt, ipisU, err := run(false)
		if err != nil {
			return nil, err
		}
		pinned, ipisP, err := run(true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", cores), unopt.String(), pinned.String(),
			stats.X(stats.Ratio(float64(unopt), float64(pinned))),
			fmt.Sprintf("%d", ipisU), fmt.Sprintf("%d", ipisP),
		})
	}
	return res, nil
}

// Fig10Threshold reproduces Fig. 10: the SwapVA-vs-memmove break-even
// sweep on the two Xeon configurations.
func Fig10Threshold(opt Options) (*Result, error) {
	maxPages := 20
	if opt.Quick {
		maxPages = 12
	}
	res := &Result{
		ID:     "fig10",
		Title:  "Threshold value for SwapVA in different CPU/memory configurations",
		Paper:  "break-even near ten pages; CPU speed and memory bandwidth shift it between machines",
		Header: []string{"machine", "pages", "swapva", "memmove", "winner"},
	}
	for _, cost := range []*sim.CostModel{sim.XeonGold6130(), sim.XeonGold6240()} {
		// The cell lists each machine's tracer as the sweep builds it.
		newMachine := func() (*machine.Machine, error) {
			m, err := opt.NewMachine(machine.Config{Cost: cost})
			if err == nil {
				opt.record(m.Tracer())
			}
			return m, err
		}
		var points []core.MoveCostPoint
		var be int
		err := opt.hold(func() (covered sim.Time, err error) {
			if points, err = core.ThresholdSweep(newMachine, maxPages); err != nil {
				return 0, err
			}
			if be, err = core.BreakEvenPages(newMachine, points, 64); err != nil {
				return 0, err
			}
			for _, p := range points {
				covered += p.SwapVANs + p.MemmoveNs
			}
			return covered, nil
		})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			winner := "memmove"
			if p.SwapVANs <= p.MemmoveNs {
				winner = "swapva"
			}
			res.Rows = append(res.Rows, []string{
				cost.Name, fmt.Sprintf("%d", p.Pages),
				p.SwapVANs.String(), p.MemmoveNs.String(), winner,
			})
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s break-even: %d pages", cost.Name, be))
	}
	return res, nil
}
