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
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
)

func main() {
	shared := bench.RegisterFlags(flag.CommandLine)
	var (
		exp     = flag.String("exp", "", "experiment ID (fig1..fig16, table1..table3) or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		quick   = flag.Bool("quick", false, "reduced sweeps and benchmark subset")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a pprof allocation profile (after the run) to this file")
	)
	flag.Parse()
	opt, err := shared.Options()
	if err != nil {
		die(2, err)
	}
	opt.Quick = *quick

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		die(2, "-exp is required (try -list)")
	}

	var exps []*bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				die(2, err)
			}
			exps = append(exps, e)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			die(1, "cpuprofile: ", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// Tables go to stdout and nothing else does: stdout is byte-comparable
	// across -parallel settings (the CI smoke step diffs it). Timing and
	// the harness line go to stderr.
	var tracers []*trace.Tracer
	start := time.Now()
	bench.RunExperiments(opt, exps, func(i int, res *bench.Result, err error, wall float64) {
		if err != nil {
			die(1, exps[i].ID, ": ", err)
		}
		fmt.Print(res.Format())
		fmt.Println()
		tracers = append(tracers, res.Traces...)
		fmt.Fprintf(os.Stderr, "(%s regenerated in %.1fs wall)\n", exps[i].ID, wall)
	})
	if err := shared.Finish(start, tracers); err != nil {
		die(1, err)
	}
	if *memProf != "" {
		runtime.GC() // fold transient garbage so the profile shows live + cumulative allocs honestly
		f, err := os.Create(*memProf)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			die(1, "memprofile: ", err)
		}
	}
}

// die reports a bad invocation (code 2) or a failed run (code 1) and
// exits.
func die(code int, msg ...any) {
	fmt.Fprintln(os.Stderr, "gcbench: "+fmt.Sprint(msg...))
	os.Exit(code)
}
