package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/jvm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Table1Applicability reproduces Table I: which optimisations apply to
// which GC cycle/phase.
func Table1Applicability(Options) (*Result, error) {
	res := &Result{
		ID:     "table1",
		Title:  "The applicability of SwapVA and optimisations",
		Paper:  "base call + PMD caching everywhere; aggregation not for concurrent evacuation; overlapping only in full/major compaction",
		Header: []string{"gc (phase)", "SwapVA", "aggregation", "PMD caching", "overlapping"},
	}
	label := map[core.GCPhase]string{
		core.PhaseFullCompact:    "Full & Major (Compact, Moving)",
		core.PhaseMinorCopy:      "Minor (Copying)",
		core.PhaseConcurrentEvac: "Concurrent (Evacuation, Reloc.)",
	}
	mark := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "-"
	}
	for _, ph := range core.Phases() {
		row := []string{label[ph]}
		for _, o := range core.Optimizations() {
			row = append(row, mark(core.Applicable(ph, o)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table2Benchmarks reproduces Table II: the benchmark configurations,
// annotated with this reproduction's scaled parameters.
func Table2Benchmarks(Options) (*Result, error) {
	res := &Result{
		ID:     "table2",
		Title:  "Benchmark configurations (paper vs scaled reproduction)",
		Header: []string{"benchmark", "suite", "paper-threads", "paper-heap", "threads", "min-heap"},
	}
	for _, s := range workloads.Registry() {
		res.Rows = append(res.Rows, []string{
			s.Name, s.Suite,
			fmt.Sprintf("%d", s.PaperThreads), s.PaperHeap,
			fmt.Sprintf("%d", s.Threads),
			fmt.Sprintf("%.1f MiB", float64(s.MinHeapBytes)/(1<<20)),
		})
	}
	return res, nil
}

// Table3PerfCounters reproduces Table III: cache and DTLB miss
// percentages of each benchmark under memmove-based and SwapVA-based
// collection, at 1.2x and 2x minimum heap.
func Table3PerfCounters(opt Options) (*Result, error) {
	res := &Result{
		ID:    "table3",
		Title: "Cache & DTLB misses at 1.2x (2x) minimum heap",
		Paper: "SwapVA lowers both cache pollution and DTLB misses; geomean cache 69.3->65.7%, dtlb 1.28->0.52% at 1.2x",
		Header: []string{"benchmark",
			"cache% memmove", "cache% swapva", "dtlb% memmove", "dtlb% swapva"},
	}
	factors := []float64{1.2, 2.0}
	if opt.Quick {
		factors = []float64{1.2}
	}
	runs, err := runAll(opt, swapPairs(benchList(opt), factors...))
	if err != nil {
		return nil, err
	}
	type cell struct{ cm, cs, dm, ds []float64 }
	var agg cell
	for _, bench := range benchList(opt) {
		row := []string{bench, "", "", "", ""}
		for fi, factor := range factors {
			base := runs[runSpec{jvm.CollectorSVAGCBase, bench, factor, 1}]
			sva := runs[runSpec{jvm.CollectorSVAGC, bench, factor, 1}]
			cm, cs := base.Perf.CacheMissPct(), sva.Perf.CacheMissPct()
			dm, ds := base.Perf.DTLBMissPct(), sva.Perf.DTLBMissPct()
			if fi == 0 {
				row[1] = fmt.Sprintf("%.2f", cm)
				row[2] = fmt.Sprintf("%.2f", cs)
				row[3] = fmt.Sprintf("%.3f", dm)
				row[4] = fmt.Sprintf("%.3f", ds)
				agg.cm = append(agg.cm, cm)
				agg.cs = append(agg.cs, cs)
				agg.dm = append(agg.dm, dm)
				agg.ds = append(agg.ds, ds)
			} else {
				row[1] += fmt.Sprintf(" (%.2f)", cm)
				row[2] += fmt.Sprintf(" (%.2f)", cs)
				row[3] += fmt.Sprintf(" (%.3f)", dm)
				row[4] += fmt.Sprintf(" (%.3f)", ds)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Rows = append(res.Rows, []string{"geomean",
		fmt.Sprintf("%.2f", stats.Geomean(agg.cm)),
		fmt.Sprintf("%.2f", stats.Geomean(agg.cs)),
		fmt.Sprintf("%.3f", stats.Geomean(agg.dm)),
		fmt.Sprintf("%.3f", stats.Geomean(agg.ds)),
	})
	return res, nil
}
