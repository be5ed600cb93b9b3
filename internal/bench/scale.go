package bench

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/stats"
)

// jvmCounts is the co-running JVM sweep of the scalability figures.
func jvmCounts(opt Options) []int {
	if opt.Quick {
		return []int{1, 8}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// scaleSpecs lists every LRU-cache run a scalability figure needs: the
// 1-JVM baseline plus the sweep points.
func scaleSpecs(opt Options, collector string) []runSpec {
	specs := []runSpec{{collector, "LRUCache", 1.2, 1}}
	for _, n := range jvmCounts(opt) {
		specs = append(specs, runSpec{collector, "LRUCache", 1.2, n})
	}
	return specs
}

// Fig2MultiJVM reproduces Fig. 2: the LRU-cache benchmark under
// ParallelGC as the number of co-running JVMs grows — both GC latency
// (maximum and total) and application time rise with contention.
func Fig2MultiJVM(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig2",
		Title:  "Scalability issue in the LRU-cache benchmark (ParallelGC, 4 GC threads)",
		Paper:  "GC latency (max and total) and application time all grow steeply with the JVM count",
		Header: []string{"jvms", "gc-max", "gc-total", "app-time"},
	}
	runs, err := runAll(opt, scaleSpecs(opt, jvm.CollectorParallel))
	if err != nil {
		return nil, err
	}
	base := runs[runSpec{jvm.CollectorParallel, "LRUCache", 1.2, 1}]
	for _, n := range jvmCounts(opt) {
		r := runs[runSpec{jvm.CollectorParallel, "LRUCache", 1.2, n}]
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n), r.GCMax.String(), r.GCTotal.String(), r.AppTime.String(),
		})
		if n == 32 || (opt.Quick && n == 8) {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"at %d JVMs: GC total grew %s, app time grew %s vs 1 JVM",
				n,
				stats.Pct(stats.Ratio(float64(r.GCTotal), float64(base.GCTotal))-1),
				stats.Pct(stats.Ratio(float64(r.AppTime), float64(base.AppTime))-1)))
		}
	}
	return res, nil
}

// Fig14SVAGCScalability reproduces Fig. 14: the same multi-JVM sweep under
// SVAGC — thanks to SwapVA's tiny bandwidth footprint and the pinned
// single-shootdown compaction, GC time grows far more slowly than
// application time (the paper reports +52% GC vs +327.5% app at 32 JVMs).
func Fig14SVAGCScalability(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig14",
		Title:  "Scalability of SVAGC in single/multi-JVM settings (LRU cache)",
		Paper:  "at 32 JVMs application time grows 327.5% while GC time grows only 52%",
		Header: []string{"jvms", "gc-total", "gc-growth", "app-time", "app-growth"},
	}
	runs, err := runAll(opt, scaleSpecs(opt, jvm.CollectorSVAGC))
	if err != nil {
		return nil, err
	}
	base := runs[runSpec{jvm.CollectorSVAGC, "LRUCache", 1.2, 1}]
	var lastGC, lastApp float64
	for _, n := range jvmCounts(opt) {
		r := runs[runSpec{jvm.CollectorSVAGC, "LRUCache", 1.2, n}]
		gcGrowth := stats.Ratio(float64(r.GCTotal), float64(base.GCTotal)) - 1
		appGrowth := stats.Ratio(float64(r.AppTime), float64(base.AppTime)) - 1
		lastGC, lastApp = gcGrowth, appGrowth
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n), r.GCTotal.String(), stats.Pct(gcGrowth),
			r.AppTime.String(), stats.Pct(appGrowth),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"at the largest sweep point: app grew %s, GC grew %s (paper: +327.5%% vs +52%%)",
		stats.Pct(lastApp), stats.Pct(lastGC)))
	return res, nil
}
