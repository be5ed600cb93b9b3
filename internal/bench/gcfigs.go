package bench

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig1PhaseBreakdown reproduces Fig. 1: the share of each LISP2 phase in
// full-GC time for FFT.large and Sparse.large under the memmove LISP2
// prototype (the paper measured 79.33%-84.76% in compaction).
func Fig1PhaseBreakdown(opt Options) (*Result, error) {
	cost := opt.Cost
	if cost == nil {
		cost = sim.CoreI5_7600() // the paper's Fig. 1 machine
	}
	o := opt
	o.Cost = cost
	res := &Result{
		ID:     "fig1",
		Title:  "Execution time of the full GC phases (" + cost.Name + ")",
		Paper:  "compaction is 79.33% (Sparse.large) to 84.76% (FFT.large) of full-GC time",
		Header: []string{"benchmark", "mark", "forward", "adjust", "compact", "compact-share"},
	}
	specs := []runSpec{
		{jvm.CollectorSVAGCBase, "FFT.large", 1.2, 1},
		{jvm.CollectorSVAGCBase, "Sparse.large", 1.2, 1},
	}
	runs, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		pt := runs[s].Phases
		share := stats.Ratio(float64(pt.Compact), float64(pt.Total()))
		res.Rows = append(res.Rows, []string{
			s.bench, pt.Mark.String(), pt.Forward.String(), pt.Adjust.String(),
			pt.Compact.String(), stats.Pct(share),
		})
	}
	return res, nil
}

// Fig11SwapVAGain reproduces Fig. 11: per benchmark, total full-GC time
// without SwapVA (memmove-only SVAGC) and with it, broken into compaction
// and the other phases.
func Fig11SwapVAGain(opt Options) (*Result, error) {
	res := &Result{
		ID:    "fig11",
		Title: "Evaluation of GC time -/+ SwapVA on SVAGC (1.2x min heap)",
		Paper: "GC-time reductions up to 70.9% (Sparse.large/4) and 97% (Sigverify); throughput gains 3.44x-33.3x",
		Header: []string{"benchmark", "gc-memmove", "compact-", "other-",
			"gc-swapva", "compact+", "other+", "reduction", "speedup"},
	}
	runs, err := runAll(opt, swapPairs(benchList(opt), 1.2))
	if err != nil {
		return nil, err
	}
	for _, bench := range benchList(opt) {
		base := runs[runSpec{jvm.CollectorSVAGCBase, bench, 1.2, 1}]
		sva := runs[runSpec{jvm.CollectorSVAGC, bench, 1.2, 1}]
		reduction := 1 - stats.Ratio(float64(sva.GCTotal), float64(base.GCTotal))
		speedup := stats.Ratio(float64(base.GCTotal), float64(sva.GCTotal))
		res.Rows = append(res.Rows, []string{
			bench,
			base.GCTotal.String(), base.Phases.Compact.String(), base.Phases.Other().String(),
			sva.GCTotal.String(), sva.Phases.Compact.String(), sva.Phases.Other().String(),
			stats.Pct(reduction), stats.X(speedup),
		})
	}
	return res, nil
}

// swapPairs lists, per benchmark and heap factor, the memmove-only and
// the SwapVA SVAGC run: the pair Figs. 11 and 15, Table III and ext2
// compare, in the order they read it.
func swapPairs(benches []string, factors ...float64) []runSpec {
	var specs []runSpec
	for _, bench := range benches {
		for _, f := range factors {
			specs = append(specs,
				runSpec{jvm.CollectorSVAGCBase, bench, f, 1}, runSpec{jvm.CollectorSVAGC, bench, f, 1})
		}
	}
	return specs
}

// baselineSpecs lists the runs Figs. 12, 13 and 16 compare, in the order
// they read them: per heap factor and benchmark, Shenandoah, ParallelGC
// and SVAGC.
func baselineSpecs(opt Options) []runSpec {
	var specs []runSpec
	for _, factor := range []float64{1.2, 2.0} {
		for _, bench := range benchList(opt) {
			for _, c := range []string{jvm.CollectorShen, jvm.CollectorParallel, jvm.CollectorSVAGC} {
				specs = append(specs, runSpec{c, bench, factor, 1})
			}
		}
	}
	return specs
}

// latencyFigure implements Figs. 12 and 13, which differ only in the
// statistic (average vs maximum full-GC latency).
func latencyFigure(opt Options, id, title, paper string,
	pick func(*runResult) sim.Time) (*Result, error) {

	res := &Result{
		ID:    id,
		Title: title,
		Paper: paper,
		Header: []string{"heap", "benchmark", "shenandoah", "parallelgc", "svagc",
			"vs-pargc", "vs-shen"},
	}
	runs, err := runAll(opt, baselineSpecs(opt))
	if err != nil {
		return nil, err
	}
	for _, factor := range []float64{1.2, 2.0} {
		var vsPar, vsShen []float64
		for _, bench := range benchList(opt) {
			shenR := runs[runSpec{jvm.CollectorShen, bench, factor, 1}]
			parR := runs[runSpec{jvm.CollectorParallel, bench, factor, 1}]
			svaR := runs[runSpec{jvm.CollectorSVAGC, bench, factor, 1}]
			sv, pv, sh := pick(svaR), pick(parR), pick(shenR)
			rp, rs := stats.Ratio(float64(pv), float64(sv)), stats.Ratio(float64(sh), float64(sv))
			fmtRatio := func(r float64) string {
				if r <= 0 {
					return "-" // a collector had no full pauses at this heap size
				}
				return stats.X(r)
			}
			if rp > 0 {
				vsPar = append(vsPar, rp)
			}
			if rs > 0 {
				vsShen = append(vsShen, rs)
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.1fx", factor), bench,
				sh.String(), pv.String(), sv.String(), fmtRatio(rp), fmtRatio(rs),
			})
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%.1fx heap: SVAGC improves on ParallelGC %s and Shenandoah %s (geomean)",
			factor, stats.X(stats.Geomean(vsPar)), stats.X(stats.Geomean(vsShen))))
	}
	return res, nil
}

// Fig12AvgLatency reproduces Fig. 12 (average full-GC latency). When a
// generational baseline ran no full collections at a heap size, its
// average stop-the-world pause stands in — still the latency its
// applications observe.
func Fig12AvgLatency(opt Options) (*Result, error) {
	return latencyFigure(opt, "fig12",
		"Average full-GC latency of SVAGC vs Shenandoah/ParallelGC",
		"SVAGC 3.82x/16.05x better than ParallelGC/Shenandoah at 1.2x heap; 2.74x/13.62x at 2x",
		func(r *runResult) sim.Time {
			if r.Fulls > 0 {
				return r.GCAvgFull
			}
			return r.GCAvg
		})
}

// Fig13MaxLatency reproduces Fig. 13 (maximum GC latency).
func Fig13MaxLatency(opt Options) (*Result, error) {
	return latencyFigure(opt, "fig13",
		"Maximum GC latency of SVAGC vs Shenandoah/ParallelGC",
		"SVAGC 4.49x/18.25x better at 1.2x heap; 3.60x/12.24x at 2x",
		func(r *runResult) sim.Time {
			if r.Fulls > 0 {
				return r.GCMaxFull
			}
			return r.GCMax
		})
}

// Fig15AppThroughput reproduces Fig. 15: end-to-end application
// throughput of SVAGC with and without SwapVA at 1.2x heap.
func Fig15AppThroughput(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fig15",
		Title:  "Application throughput of SVAGC at 1.2x min heap (+/- SwapVA)",
		Paper:  "improvement from 15.2% (CryptoAES) to 86.9% (Sparse.large)",
		Header: []string{"benchmark", "app-memmove", "app-swapva", "improvement"},
	}
	runs, err := runAll(opt, swapPairs(benchList(opt), 1.2))
	if err != nil {
		return nil, err
	}
	var imprs []float64
	for _, bench := range benchList(opt) {
		base := runs[runSpec{jvm.CollectorSVAGCBase, bench, 1.2, 1}]
		sva := runs[runSpec{jvm.CollectorSVAGC, bench, 1.2, 1}]
		// Throughput improvement: work per time, i.e. appBase/appSwap - 1.
		impr := stats.Ratio(float64(base.AppTime), float64(sva.AppTime)) - 1
		imprs = append(imprs, impr)
		res.Rows = append(res.Rows, []string{
			bench, base.AppTime.String(), sva.AppTime.String(), stats.Pct(impr),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf("range: %s to %s",
		stats.Pct(stats.Min(imprs)), stats.Pct(stats.Max(imprs))))
	return res, nil
}

// Fig16VsBaselines reproduces Fig. 16: application throughput of SVAGC
// against ParallelGC and Shenandoah at both heap factors.
func Fig16VsBaselines(opt Options) (*Result, error) {
	res := &Result{
		ID:    "fig16",
		Title: "Application throughput of SVAGC vs Shenandoah/ParallelGC",
		Paper: "SVAGC beats ParallelGC/Shenandoah by 30.95%/37.27% on average at 1.2x heap, 15.26%/16.79% at 2x",
		Header: []string{"heap", "benchmark", "app-shen", "app-pargc", "app-svagc",
			"vs-pargc", "vs-shen"},
	}
	runs, err := runAll(opt, baselineSpecs(opt))
	if err != nil {
		return nil, err
	}
	for _, factor := range []float64{1.2, 2.0} {
		var vsPar, vsShen []float64
		for _, bench := range benchList(opt) {
			shenR := runs[runSpec{jvm.CollectorShen, bench, factor, 1}]
			parR := runs[runSpec{jvm.CollectorParallel, bench, factor, 1}]
			svaR := runs[runSpec{jvm.CollectorSVAGC, bench, factor, 1}]
			ip := stats.Ratio(float64(parR.AppTime), float64(svaR.AppTime)) - 1
			is := stats.Ratio(float64(shenR.AppTime), float64(svaR.AppTime)) - 1
			vsPar = append(vsPar, ip)
			vsShen = append(vsShen, is)
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.1fx", factor), bench,
				shenR.AppTime.String(), parR.AppTime.String(), svaR.AppTime.String(),
				stats.Pct(ip), stats.Pct(is),
			})
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%.1fx heap: mean improvement %s vs ParallelGC, %s vs Shenandoah",
			factor, stats.Pct(stats.Mean(vsPar)), stats.Pct(stats.Mean(vsShen))))
	}
	return res, nil
}
