package bench

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file implements the extension experiments beyond the paper's
// evaluation — the directions its Table I and §VI explicitly point at:
// applying SwapVA to the copying phases of other collector designs, and
// running the heap on non-volatile memory.

// Ext1PhaseMatrix demonstrates Table I in action: SwapVA applied to the
// moving phase of all three collector designs (full compaction in SVAGC,
// minor copying in the generational collector, evacuation in the
// concurrent collector), each against its memmove twin.
func Ext1PhaseMatrix(opt Options) (*Result, error) {
	res := &Result{
		ID:    "ext1",
		Title: "Extension: SwapVA across GC designs (Table I in action)",
		Paper: "Table I claims the base call applies to every cycle/phase; the paper prototypes only the Full GC",
		Header: []string{"design", "benchmark", "gc-memmove", "gc-swapva",
			"reduction", "pages-swapped", "ipis"},
	}
	pairs := []struct {
		design     string
		base, swap string
	}{
		{"full compaction", jvm.CollectorSVAGCBase, jvm.CollectorSVAGC},
		{"minor copying", jvm.CollectorParallel, jvm.CollectorParallelSwap},
		{"concurrent evac", jvm.CollectorShen, jvm.CollectorShenSwap},
	}
	benches := []string{"Sigverify", "Parallelsort"}
	if opt.Quick {
		benches = benches[:1]
	}
	var specs []runSpec
	for _, bench := range benches {
		for _, p := range pairs {
			specs = append(specs,
				runSpec{p.base, bench, 1.2, 1}, runSpec{p.swap, bench, 1.2, 1})
		}
	}
	runs, err := runAll(opt, specs)
	if err != nil {
		return nil, err
	}
	for _, bench := range benches {
		for _, p := range pairs {
			base := runs[runSpec{p.base, bench, 1.2, 1}]
			swap := runs[runSpec{p.swap, bench, 1.2, 1}]
			reduction := 1 - stats.Ratio(float64(swap.GCTotal), float64(base.GCTotal))
			res.Rows = append(res.Rows, []string{
				p.design, bench,
				base.GCTotal.String(), swap.GCTotal.String(), stats.Pct(reduction),
				fmt.Sprintf("%d", swap.Perf.PagesSwapped),
				fmt.Sprintf("%d", swap.Perf.IPIsSent),
			})
		}
	}
	res.Notes = append(res.Notes,
		"concurrent evacuation pays a shootdown per call (no aggregation or pinning, per Table I); its relative gain is nevertheless large because the non-stealing copy baseline it replaces is the slowest of the three")
	return res, nil
}

// Ext2NVMHeap explores the paper's §VI hybrid-memory outlook: the same
// collections on a machine whose heap lives in NVM with 4x store costs.
// SwapVA's zero-copy moving avoids almost all GC store traffic, so its
// advantage widens — and the written-byte counter doubles as a wear
// metric.
func Ext2NVMHeap(opt Options) (*Result, error) {
	res := &Result{
		ID:    "ext2",
		Title: "Extension: heap on non-volatile memory (4x store cost)",
		Paper: "§VI: hybrid heaps could use SwapVA to reduce NVM write cycles and mitigate wear-out",
		Header: []string{"memory", "benchmark", "gc-memmove", "gc-swapva", "speedup",
			"gc-writes-", "gc-writes+", "wear-reduction"},
	}
	benches := []string{"Sigverify", "Sparse.large"}
	if opt.Quick {
		benches = benches[:1]
	}
	for _, cost := range []*sim.CostModel{sim.XeonGold6130(), sim.XeonGold6130NVM()} {
		o := opt
		o.Cost = cost
		runs, err := runAll(o, swapPairs(benches, 1.2))
		if err != nil {
			return nil, err
		}
		for _, bench := range benches {
			base := runs[runSpec{jvm.CollectorSVAGCBase, bench, 1.2, 1}]
			swap := runs[runSpec{jvm.CollectorSVAGC, bench, 1.2, 1}]
			// MovedBytes is the collector's copy traffic: every copied
			// byte is written once — the write cycles NVM wear cares
			// about. SwapVA replaces them with PTE stores.
			wear := stats.Ratio(float64(base.GCMovedBytes()), float64(swap.GCMovedBytes()+1))
			res.Rows = append(res.Rows, []string{
				cost.Name, bench,
				base.GCTotal.String(), swap.GCTotal.String(),
				stats.X(stats.Ratio(float64(base.GCTotal), float64(swap.GCTotal))),
				fmt.Sprintf("%d", base.GCMovedBytes()),
				fmt.Sprintf("%d", swap.GCMovedBytes()),
				stats.X(wear),
			})
		}
	}
	res.Notes = append(res.Notes,
		"the SwapVA speedup grows on NVM because the baseline's copy stores slow down 4x while PTE swaps are unaffected")
	return res, nil
}

// GCMovedBytes returns the bytes the collector physically copied.
func (r *runResult) GCMovedBytes() uint64 { return r.Perf.BytesCopied }

// Ext3HugePages measures the huge-swap extension: moving multi-MiB
// regions by whole-PMD-entry exchange versus per-PTE swapping versus
// memmove — the paper's technique applied one page-table level up, where
// its modified Sigverify workloads (10 MiB and 100 MiB objects) live.
func Ext3HugePages(opt Options) (*Result, error) {
	sizesMiB := []int{2, 8, 32, 128}
	if opt.Quick {
		sizesMiB = []int{2, 32}
	}
	res := &Result{
		ID:    "ext3",
		Title: "Extension: 2 MiB (PMD-entry) huge swaps for multi-MiB objects",
		Paper: "the paper swaps PTEs; its 10-100 MiB Sigverify objects invite swapping whole PMD entries instead",
		Header: []string{"size", "memmove", "swapva-pte", "swapva-huge",
			"huge-vs-pte", "huge-vs-memmove"},
	}
	cost := opt.cost()
	for _, mib := range sizesMiB {
		pages := mib << 8 // MiB -> 4 KiB pages
		var move, pte, huge sim.Time
		err := opt.hold(func() (sim.Time, error) {
			m, err := machine.New(machine.Config{Cost: cost})
			if err != nil {
				return 0, err
			}
			k := kernel.New(m)
			as := m.NewAddressSpace()
			raw, err := as.MapRegion(2*pages + 1024)
			if err != nil {
				return 0, err
			}
			a := (raw + mmu.PMDSpan - 1) &^ (mmu.PMDSpan - 1)
			b := a + uint64(pages)<<12

			moveCtx := m.NewContext(0)
			if err := k.Memmove(moveCtx, as, b, a, pages<<12); err != nil {
				return 0, err
			}
			pteCtx := m.NewContext(0)
			if err := k.SwapVA(pteCtx, as, a, b, pages, kernel.DefaultOptions()); err != nil {
				return 0, err
			}
			hugeOpts := kernel.DefaultOptions()
			hugeOpts.HugeSwap = true
			hugeCtx := m.NewContext(0)
			if err := k.SwapVA(hugeCtx, as, a, b, pages, hugeOpts); err != nil {
				return 0, err
			}
			move, pte, huge = moveCtx.Clock.Now(), pteCtx.Clock.Now(), hugeCtx.Clock.Now()
			return move + pte + huge, nil
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d MiB", mib),
			move.String(), pte.String(), huge.String(),
			stats.X(stats.Ratio(float64(pte), float64(huge))),
			stats.X(stats.Ratio(float64(move), float64(huge))),
		})
	}
	res.Notes = append(res.Notes,
		"enable in the collector with svagc.Config{HugePages: true}; objects >= 2 MiB then align to PMD boundaries")
	return res, nil
}
