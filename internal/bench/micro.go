package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/stats"
)

// microFixture builds a machine + kernel + address space with two mapped
// regions of the given page count.
type microFixture struct {
	m        *machine.Machine
	k        *kernel.Kernel
	as       *mmu.AddressSpace
	va1, va2 uint64
}

func newMicroFixture(cost *sim.CostModel, pages int) (*microFixture, error) {
	m, err := machine.New(machine.Config{Cost: cost})
	if err != nil {
		return nil, err
	}
	k := kernel.New(m)
	as := m.NewAddressSpace()
	va1, err := as.MapRegion(pages)
	if err != nil {
		return nil, err
	}
	va2, err := as.MapRegion(pages)
	if err != nil {
		return nil, err
	}
	return &microFixture{m: m, k: k, as: as, va1: va1, va2: va2}, nil
}

// Fig6Aggregation reproduces Fig. 6: the cost of N independent small
// swaps issued as N separate SwapVA calls versus one aggregated
// (vectored) call, swept over the per-request page count.
func Fig6Aggregation(opt Options) (*Result, error) {
	cost := opt.Cost
	if cost == nil {
		cost = sim.CoreI5_7600() // the paper measures Fig. 6 on the i5
	}
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
		f, err := newMicroFixture(cost, pages*nReqs)
		if err != nil {
			return nil, err
		}
		reqs := make([]kernel.SwapReq, nReqs)
		for r := range reqs {
			off := uint64(r*pages) << 12
			reqs[r] = kernel.SwapReq{VA1: f.va1 + off, VA2: f.va2 + off, Pages: pages}
		}
		sep := f.m.NewContext(0)
		for _, r := range reqs {
			if err := f.k.SwapVA(sep, f.as, r.VA1, r.VA2, r.Pages, kernel.DefaultOptions()); err != nil {
				return nil, err
			}
		}
		agg := f.m.NewContext(0)
		if _, err := f.k.SwapVAVec(agg, f.as, reqs, kernel.DefaultOptions()); err != nil {
			return nil, err
		}
		speedup := stats.Ratio(float64(sep.Clock.Now()), float64(agg.Clock.Now()))
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pages), sep.Clock.Now().String(), agg.Clock.Now().String(), stats.X(speedup),
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
	cost := opt.Cost
	if cost == nil {
		cost = sim.CoreI5_7600() // Fig. 8 is also an i5 microbenchmark
	}
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
		f, err := newMicroFixture(cost, pages)
		if err != nil {
			return nil, err
		}
		withOpts := kernel.DefaultOptions()
		withOpts.Flush = kernel.FlushLocalOnly // isolate the walk cost
		withoutOpts := withOpts
		withoutOpts.PMDCaching = false

		off := f.m.NewContext(0)
		if err := f.k.SwapVA(off, f.as, f.va1, f.va2, pages, withoutOpts); err != nil {
			return nil, err
		}
		on := f.m.NewContext(0)
		if err := f.k.SwapVA(on, f.as, f.va1, f.va2, pages, withOpts); err != nil {
			return nil, err
		}
		impr := 1 - float64(on.Clock.Now())/float64(off.Clock.Now())
		improvements = append(improvements, impr)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pages), off.Clock.Now().String(), on.Clock.Now().String(), stats.Pct(impr),
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
		run := func(pinned bool) (sim.Time, uint64, error) {
			f, err := newMicroFixture(&cost, objects*pagesPer)
			if err != nil {
				return 0, 0, err
			}
			ctx := f.m.NewContext(0)
			opts := kernel.DefaultOptions()
			if pinned {
				ctx.Pin()
				ctx.ShootdownAll(f.as.ASID)
				opts.Flush = kernel.FlushLocalOnly
			}
			for i := 0; i < objects; i++ {
				off := uint64(i*pagesPer) << 12
				if err := f.k.SwapVA(ctx, f.as, f.va1+off, f.va2+off, pagesPer, opts); err != nil {
					return 0, 0, err
				}
			}
			if pinned {
				ctx.Unpin()
			}
			return ctx.Clock.Now(), ctx.Perf.IPIsSent, nil
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
		points, err := core.ThresholdSweep(cost, maxPages)
		if err != nil {
			return nil, err
		}
		be, err := core.BreakEvenPages(cost, 64)
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
