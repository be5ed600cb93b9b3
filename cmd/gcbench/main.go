// Command gcbench regenerates the paper's evaluation artifacts: every
// figure and table has an experiment ID (fig1..fig16, table1..table3).
//
// Usage:
//
//	gcbench -exp fig11            # one experiment
//	gcbench -exp all              # everything, in paper order
//	gcbench -exp fig12 -quick     # reduced sweep for a fast look
//	gcbench -list                 # available experiment IDs
//	gcbench -exp fig10 -machine gold6240
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID (fig1..fig16, table1..table3) or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quick    = flag.Bool("quick", false, "reduced sweeps and benchmark subset")
		mach     = flag.String("machine", "", "cost model override (gold6130, gold6240, i5-7600)")
		workers  = flag.Int("gcworkers", 4, "GC threads per JVM")
		seed     = flag.Int64("seed", 42, "workload seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "machines simulated at once, across every experiment (1 = one at a time). Output, -trace and -metrics are byte-identical at any setting")
		traceOut = flag.String("trace", "", "write a combined Chrome trace_event JSON of every workload run each experiment reads")
		metrics  = flag.String("metrics", "", "write a combined Prometheus text-format metrics snapshot of every workload run each experiment reads")
		sockets  = flag.Int("sockets", 1, "sockets (NUMA nodes) the simulated cores are split over")
		numaPol  = flag.String("numa-policy", "", "page placement on multi-socket machines: first-touch, interleave, or bind[:N]")
		faultPln = flag.String("fault-plan", "", "fault-injection plan: comma-separated site=rate (sites: pte-lock, ipi-ack, swapva, poison, interconnect, far-write, all), e.g. 'swapva=0.01,poison=1e-4'")
		faultRt  = flag.Float64("fault-rate", 0, "uniform fault rate applied to every site (per-site -fault-plan entries override it)")
		faultSd  = flag.Int64("fault-seed", 0, "fault-injection seed; the same seed and plan replay the identical fault sequence (0 = workload seed)")
		swapTier = flag.Int64("swap-tier", 0, "far (NVMe) swap-tier capacity in MiB for the far-memory figures, e.g. oversub1 (0 with -zpool 0 = each figure's built-in tier)")
		zpool    = flag.Int64("zpool", 0, "compressed-RAM zpool budget in MiB in front of the far tier")
		farLat   = flag.Int64("far-lat", 0, "far-device access latency in ns (0 = default 10000)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof allocation profile (after the run) to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "gcbench: -exp is required (try -list)")
		os.Exit(2)
	}

	policy, bind, err := topology.ParsePolicy(*numaPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "gcbench: -gcworkers must be at least 1")
		os.Exit(2)
	}
	opt := bench.Options{Quick: *quick, GCWorkers: *workers, Seed: *seed,
		Sockets: *sockets, NUMAPolicy: policy, NUMABind: bind,
		Parallel: *parallel, Trace: *traceOut != "" || *metrics != "",
		FaultPlan: *faultPln, FaultRate: *faultRt, FaultSeed: *faultSd,
		Swap: swaptier.Config{FarBytes: *swapTier << 20, ZpoolBytes: *zpool << 20, FarLatNs: sim.Time(*farLat)}}
	if _, err := opt.FaultInjector(); err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(2)
	}
	if opt.Swap.Enabled() {
		if err := opt.Swap.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(2)
		}
	}
	if *mach != "" {
		cost, err := sim.ModelByName(*mach)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench:", err)
			os.Exit(2)
		}
		opt.Cost = cost
	}

	var exps []*bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "gcbench:", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// Tables go to stdout and nothing else does: stdout is byte-comparable
	// across -parallel settings (the CI smoke step diffs it). Timing and
	// the simulation-rate summary go to stderr.
	var tracers []*trace.Tracer
	wallStart := time.Now()
	bench.RunExperiments(opt, exps, func(i int, res *bench.Result, err error, wall float64) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %s: %v\n", exps[i].ID, err)
			os.Exit(1)
		}
		fmt.Print(res.Format())
		fmt.Println()
		tracers = append(tracers, res.Traces...)
		fmt.Fprintf(os.Stderr, "(%s regenerated in %.1fs wall)\n", exps[i].ID, wall)
	})
	wall := time.Since(wallStart).Seconds()
	runs, simNs := bench.HarnessStats()
	fmt.Fprintf(os.Stderr,
		"harness: %d machine runs, %.3fs simulated in %.1fs wall — %.0f sim-ns/host-ms, %.2f runs/s, parallel=%d\n",
		runs, simNs.Seconds(), wall, float64(simNs)/(wall*1e3), float64(runs)/wall, max(*parallel, 1))

	if *traceOut != "" {
		if err := writeFile(*traceOut, trace.ChromeTraceOf(tracers...).Write); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: trace:", err)
			os.Exit(1)
		}
	}
	if *metrics != "" {
		if err := writeFile(*metrics, trace.SnapshotOf(tracers...).WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: metrics:", err)
			os.Exit(1)
		}
	}
	if *memProf != "" {
		runtime.GC() // fold transient garbage so the profile shows live + cumulative allocs honestly
		if err := writeFile(*memProf, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: memprofile:", err)
			os.Exit(1)
		}
	}
}

// writeFile streams write into path, closing cleanly on error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
