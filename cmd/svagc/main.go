// Command svagc runs one Table II workload under a chosen collector and
// prints its GC and application statistics — the interactive entry point
// for exploring the system. -bench also accepts a comma-separated list,
// which runs them side by side, at most -parallel machines at once, and
// prints the reports in input order.
//
// Usage:
//
//	svagc -bench Sigverify                       # SVAGC, 1.2x min heap
//	svagc -bench Sparse.large/4 -gc parallelgc
//	svagc -bench LRUCache -gc svagc -jvms 32     # modelled co-running JVMs
//	svagc -bench FFT.large -heap 2.0 -threshold 16
//	svagc -bench Sigverify,CryptoAES,Bisort      # parallel multi-run
//	svagc -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gc"
	"repro/internal/gc/svagc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/smr"
)

func main() {
	shared := bench.RegisterFlags(flag.CommandLine)
	var (
		benchName = flag.String("bench", "", "workload name, or a comma-separated list to fan out (see -list)")
		collector = flag.String("gc", jvm.CollectorSVAGC, "collector: svagc, svagc-memmove, parallelgc, shenandoah, parallelgc-swapva, shenandoah-swapva, copygc")
		factor    = flag.Float64("heap", 1.2, "heap size as a factor of the workload's minimum")
		jvms      = flag.Int("jvms", 1, "modelled co-running JVM count")
		threshold = flag.Int("threshold", 0, "SwapVA threshold override in pages (svagc only)")
		list      = flag.Bool("list", false, "list workloads and exit")
		pauses    = flag.Bool("pauses", false, "print every pause record")
		gclog     = flag.Bool("gclog", false, "stream -Xlog:gc style lines to stderr as pauses happen")
		histo     = flag.Bool("histo", false, "print a class histogram of the final heap (jmap -histo style)")
		spillOut  = flag.String("trace-spill", "", "stream trace events to this file as JSON lines when ring buffers fill (implies tracing; nothing is dropped)")
		traceBuf  = flag.Int("trace-buf", 0, "trace ring size in events per context (0 = default 8192; with -trace-spill this is the flush batch size)")
		numaGC    = flag.String("numa-gc", "", "GC worker placement on multi-socket machines: spread or local (svagc only)")
		watchdogD = flag.Duration("watchdog", 0, "arm the GC watchdog: abort with diagnostics when a phase exceeds this simulated duration (svagc, svagc-memmove, copygc)")
		soakDur   = flag.Duration("soak", 0, "run the memory-pressure soak loop for this host duration instead of a workload (reads -gc, -gcworkers, -seed, -watchdog, -tenants, -tenant-cap and the swap-tier knobs)")
		physMiB   = flag.Int64("phys", 0, "bound the simulated machine's physical RAM in MiB (0 = unbounded; required with the swap-tier knobs in workload mode — the soak loop sizes its own pool)")
		tenants   = flag.Int("tenants", 0, "tenant count: replicas for -smr, capped tenants churning in turn for -soak (0 = single-tenant)")
		tenantCap = flag.Int64("tenant-cap", 0, "per-tenant memory cap in MiB; in workload mode the JVM runs as a capped tenant with its own pressure ladder (0 = uncapped)")
		gcArb     = flag.Int("gc-arbiter", 0, "arm the machine-wide GC arbiter with this concurrent-collection bound (0 = unarbitrated)")
		smrHeap   = flag.Int64("smr", 0, "run the raft-style SMR cluster workload with this replica heap size in MiB instead of a -bench workload (reads -gc, -gcworkers, -seed, -machine, -parallel, -tenants, -tenant-cap, -gc-arbiter, the fault and trace flags)")
	)
	flag.Parse()
	opt, err := shared.Options()
	if err != nil {
		die(2, err)
	}
	// Out of range, each of these would run a default the report does
	// not show, or fail after part of a run.
	for _, c := range []struct {
		bad        bool
		flag, want string
	}{
		{!(*factor > 0), "-heap", "positive"},
		{*jvms < 1, "-jvms", "at least 1"},
		{*threshold < 0, "-threshold", "positive (0 = the 10-page default)"},
		{*physMiB < 0, "-phys", "0 or more"},
		{*tenants < 0, "-tenants", "0 or more"},
		{*tenantCap < 0, "-tenant-cap", "0 or more"},
		{*gcArb < 0, "-gc-arbiter", "0 or more"},
		{*traceBuf < 0, "-trace-buf", "0 or more"},
	} {
		if c.bad {
			die(2, c.flag, " must be ", c.want)
		}
	}

	if *list {
		for _, s := range workloads.Registry() {
			fmt.Printf("%-16s %-12s paper: %4d threads, %s; scaled: %d threads, %.1f MiB min heap\n",
				s.Name, s.Suite, s.PaperThreads, s.PaperHeap, s.Threads, float64(s.MinHeapBytes)/(1<<20))
		}
		return
	}
	// -soak and -smr build their own machine shapes, so a set flag that
	// the mode does not read is refused rather than silently ignored.
	var mode string
	var reads []string
	switch {
	case *soakDur > 0:
		mode, reads = "-soak", strings.Fields("soak gc gcworkers seed watchdog tenants tenant-cap swap-tier zpool far-lat")
	case *smrHeap > 0:
		mode, reads = "-smr", strings.Fields("smr gc gcworkers seed machine parallel tenants tenant-cap gc-arbiter fault-plan fault-rate fault-seed trace metrics trace-buf")
	}
	if mode != "" {
		flag.Visit(func(f *flag.Flag) {
			if !slices.Contains(reads, f.Name) {
				die(2, "-", f.Name, " is not read by ", mode)
			}
		})
	}
	capFrames := int(*tenantCap << 20 >> mem.PageShift)
	if *soakDur > 0 {
		res, err := soak.Run(soak.Config{
			Collector:       *collector,
			GCWorkers:       opt.GCWorkers,
			Duration:        *soakDur,
			Watchdog:        sim.Time(watchdogD.Nanoseconds()),
			Seed:            opt.Seed,
			Swap:            opt.Swap,
			Tenants:         *tenants,
			TenantCapFrames: capFrames,
			Log:             os.Stderr,
		})
		if res != nil {
			fmt.Println("soak:", res)
		}
		if err != nil {
			die(1, "soak: ", err)
		}
		return
	}

	// Every run, -smr's cluster and each -bench workload, is a cell of
	// the harness's machine slots: at most -parallel machines in flight,
	// each counted on the harness line.
	start := time.Now()
	if *smrHeap > 0 {
		var tr *trace.Tracer
		err := opt.HoldEach(1, func(int) (elapsed sim.Time, err error) {
			tr, elapsed, err = runSMR(opt, smr.Config{Collector: *collector, Replicas: *tenants,
				HeapBytes: *smrHeap << 20, GCWorkers: opt.GCWorkers, Seed: opt.Seed,
				CapFrames: capFrames, MaxConcurrentGC: *gcArb}, *traceBuf)
			return elapsed, err
		})
		if err != nil {
			die(1, "smr: ", err)
		}
		if err := shared.Finish(start, []*trace.Tracer{tr}); err != nil {
			die(1, err)
		}
		return
	}
	if *benchName == "" {
		die(2, "-bench is required (try -list)")
	}
	if opt.Swap.Enabled() && *physMiB == 0 {
		die(2, "the swap tier reclaims against a bounded pool: set -phys (MiB of simulated RAM) with -swap-tier/-zpool")
	}
	benches := strings.Split(*benchName, ",")
	place, err := gc.ParsePlacement(*numaGC)
	if err != nil {
		die(2, err)
	}
	// The threshold and placement overrides reach only the SVAGC preset;
	// anywhere else the run would silently ignore them.
	if (*threshold > 0 || *numaGC != "") && *collector != jvm.CollectorSVAGC {
		die(2, "-threshold and -numa-gc apply only to -gc ", jvm.CollectorSVAGC, ", not ", *collector)
	}
	// cfgFor builds the JVM configuration for one workload spec, honouring
	// the SVAGC-only threshold/placement overrides and the watchdog
	// deadline.
	deadline := sim.Time(watchdogD.Nanoseconds())
	cfgFor := func(spec *workloads.Spec) (jvm.Config, error) {
		heapBytes := spec.MinHeap(*factor)
		if (*threshold > 0 || place != gc.PlaceSpread) && *collector == jvm.CollectorSVAGC {
			sc := svagc.Config{Workers: opt.GCWorkers, ThresholdPages: *threshold,
				Placement: place, PhaseDeadline: deadline}
			return jvm.Config{
				HeapBytes: heapBytes,
				Threads:   spec.Threads,
				Policy:    svagc.Policy(sc),
				NewCollector: func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
					return svagc.New(h, roots, sc)
				},
			}, nil
		}
		cfg, ok := jvm.ConfigForDeadline(*collector, heapBytes, spec.Threads, opt.GCWorkers, deadline)
		if !ok {
			return jvm.Config{}, fmt.Errorf("unknown collector %q (want %v)", *collector, jvm.CollectorNames())
		}
		return cfg, nil
	}

	// report renders one run's summary.
	report := func(w io.Writer, spec *workloads.Spec, m *machine.Machine, j *jvm.JVM) {
		st := j.GC.Stats()
		fmt.Fprintf(w, "%s under %s on %s (%.1fx min heap = %.1f MiB, %d mutator threads, %d GC workers, %d JVMs)\n",
			spec.Name, j.GC.Name(), m.Cost.Name, *factor, float64(spec.MinHeap(*factor))/(1<<20), spec.Threads, opt.GCWorkers, *jvms)
		fmt.Fprintf(w, "  app time           %v (mutator %v + pauses %v + concurrent GC %v)\n",
			j.AppTime(), j.MutatorTime(), j.GCPauseTime(), j.GCConcurrentTime())
		fmt.Fprintf(w, "  collections        %d full, %d minor\n", st.Count(gc.KindFull), st.Count(gc.KindMinor))
		fmt.Fprintf(w, "  pause total/max    %v / %v\n", st.TotalPause(""), st.MaxPause(""))
		pt := st.PhaseTotals(gc.KindFull)
		fmt.Fprintf(w, "  full-GC phases     mark %v, forward %v, adjust %v, compact %v\n",
			pt.Mark, pt.Forward, pt.Adjust, pt.Compact)
		p := j.TotalPerf()
		fmt.Fprintf(w, "  moving             %d pages swapped in %d SwapVA calls; %d bytes memmoved\n",
			p.PagesSwapped, p.SwapVACalls, p.BytesCopied)
		fmt.Fprintf(w, "  perf               %s\n", p.String())
		if tn := j.Tenant(); tn != nil {
			u := tn.Usage()
			fmt.Fprintf(w, "  tenant             %s: %d/%d pages charged (peak %d), pressure %s\n",
				u.Name, u.Charged, u.CapFrames, u.Peak, u.Pressure)
		}
		if m.FaultInjector().Active() {
			fmt.Fprintf(w, "  faults             %d injected; %d swap retries, %d copy fallbacks, %d rollbacks, %d IPI re-sends (every GC verified)\n",
				p.FaultsInjected, p.SwapRetries, p.SwapFallbacks, p.SwapRollbacks, p.IPIResends)
		}
		if m.Nodes() > 1 {
			fmt.Fprintf(w, "  numa               %s, %d/%d remote/local accesses, %d remote B, %d remote IPIs, %d cross-node swaps\n",
				m.Topology(), p.NUMARemote, p.NUMALocal, p.NUMARemoteBytes, p.IPIsRemote, p.CrossNodeSwaps)
		}
		if m.SwapEnabled() {
			st := m.SwapTier().Stats()
			var kruns uint64
			if kp := m.KswapdPerf(); kp != nil {
				kruns = kp.ReclaimRuns
			}
			fmt.Fprintf(w, "  swap               %d pages out, %d in, %d zero-discarded; %d in tier at end; %d kswapd runs, %d direct reclaims\n",
				st.OutPages, st.InPages, st.ZeroPages, st.Slots, kruns, p.DirectReclaims)
		}
		if *pauses {
			for i := range st.Pauses {
				fmt.Fprintf(w, "  pause[%d] %s\n", i, st.Pauses[i].String())
			}
		}
	}

	// Only the flags that stream while a run executes are limited to one
	// workload: -gclog writes to stderr and -trace-spill to one file.
	if len(benches) > 1 {
		if *spillOut != "" {
			die(2, "-trace-spill needs a single -bench workload, not a list")
		}
		if *gclog {
			die(2, "-gclog needs a single -bench workload, not a list")
		}
	}
	specs := make([]*workloads.Spec, len(benches))
	cfgs := make([]jvm.Config, len(benches))
	for i, name := range benches {
		if specs[i], err = workloads.ByName(strings.TrimSpace(name)); err == nil {
			cfgs[i], err = cfgFor(specs[i])
		}
		if err != nil {
			die(2, err)
		}
	}

	traced := opt.Trace || *spillOut != ""
	// runOne executes one workload on its own machine and renders its
	// whole report, so every run takes the same path at any list length.
	runOne := func(i int) run {
		spec, cfg := specs[i], cfgs[i]
		m, err := opt.NewMachine(machine.Config{PhysBytes: *physMiB << 20, Swap: opt.Swap})
		if err != nil {
			return run{err: err}
		}
		if *jvms > 1 {
			m.SetActiveJVMs(*jvms)
		}
		var tr *trace.Tracer
		if traced { // replaces NewMachine's ring with a -trace-buf sized, spillable one
			tr = m.EnableTracing(*traceBuf)
		}
		var spill *os.File
		if *spillOut != "" {
			if spill, err = os.Create(*spillOut); err != nil {
				return run{err: fmt.Errorf("trace-spill: %w", err)}
			}
			defer spill.Close()
			tr.SetSpill(spill)
		}
		if *tenantCap > 0 {
			if cfg.Tenant, err = m.NewTenant("tenant0", capFrames); err != nil {
				return run{err: err}
			}
		}
		if *gcArb > 0 {
			cfg.Arbiter = sched.New(sched.Config{MaxConcurrent: *gcArb, Injector: m.FaultInjector()})
		}
		j, err := jvm.New(m, cfg)
		if err != nil {
			return run{err: err}
		}
		if *gclog {
			j.WithGCLog(os.Stderr)
		}
		if err := spec.Run(j, opt.Seed); err != nil {
			return run{err: err}
		}
		r := run{sim: j.AppTime(), trace: tr}
		var b strings.Builder
		report(&b, spec, m, j)
		if *histo {
			// A final full collection compacts the heap so the histogram
			// reports live objects only (plus alignment fillers).
			if _, err := j.CollectNow(); err != nil {
				return run{err: fmt.Errorf("final collection: %w", err)}
			}
			stats, err := j.Heap.Histogram(j.Thread(0).Ctx)
			if err != nil {
				return run{err: fmt.Errorf("histogram: %w", err)}
			}
			b.WriteString("live-heap class histogram:\n")
			b.WriteString(heap.FormatHistogram(stats))
		}
		if spill != nil {
			if err := tr.SpillErr(); err != nil {
				return run{err: fmt.Errorf("trace-spill: %w", err)}
			}
			if err := spill.Close(); err != nil {
				return run{err: fmt.Errorf("trace-spill: %w", err)}
			}
			fmt.Fprintf(&b, "  trace-spill        %d events streamed to %s\n", tr.Spilled(), *spillOut)
		}
		r.text = b.String()
		return r
	}

	// The reports are buffered and printed in input order, whichever run
	// finishes first, so stdout is byte-identical at any -parallel. Each
	// run's error stays in its run and is reported in that order too.
	runs := make([]run, len(specs))
	_ = opt.HoldEach(len(runs), func(i int) (sim.Time, error) {
		runs[i] = runOne(i)
		return runs[i].sim, runs[i].err
	})
	var tracers []*trace.Tracer
	failed := false
	for i, r := range runs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "svagc: %s: %v\n", strings.TrimSpace(benches[i]), r.err)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.text)
		if r.trace != nil {
			tracers = append(tracers, r.trace)
		}
	}
	if err := shared.Finish(start, tracers); err != nil {
		die(1, err)
	}
	if failed {
		os.Exit(1)
	}
}

// run is one workload's outcome: its buffered report, the simulated
// time it covered, and its tracer when tracing is on.
type run struct {
	text  string
	sim   sim.Time
	trace *trace.Tracer
	err   error
}

// runSMR runs the raft-style SMR cluster workload on a machine built from
// opt: cfg.Replicas replicas (default 3), each a capped tenant JVM
// (default cap: heap plus a copying collector's to-space plus slack),
// collections arbitrated when cfg.MaxConcurrentGC is set, leader churn
// driven by GC pauses. It prints the cluster's report and returns its
// tracer and the simulated time the cluster covered.
func runSMR(opt bench.Options, cfg smr.Config, traceBuf int) (*trace.Tracer, sim.Time, error) {
	m, err := opt.NewMachine(machine.Config{})
	if err != nil {
		return nil, 0, err
	}
	var tr *trace.Tracer
	if opt.Trace { // replaces NewMachine's ring with a -trace-buf sized one
		tr = m.EnableTracing(traceBuf)
	}
	if cfg.CapFrames <= 0 {
		cfg.CapFrames = 2*int(cfg.HeapBytes>>mem.PageShift) + 64
	}
	res, err := smr.Run(m, cfg)
	if err != nil {
		return nil, 0, err
	}
	fmt.Printf("smr cluster: %d replicas under %s on %s (%.1f MiB heap each, cap %d frames)\n",
		res.Replicas, cfg.Collector, m.Cost.Name, float64(cfg.HeapBytes)/(1<<20), cfg.CapFrames)
	fmt.Printf("  rounds/commits     %d / %d\n", res.Rounds, res.Commits)
	fmt.Printf("  leader churn       %d failovers, %d evictions, %d entries replayed\n",
		res.Failovers, res.Evictions, res.ReplayEntries)
	fmt.Printf("  commit latency     p50 %v, p99 %v, p99.9 %v, max %v\n",
		res.P50, res.P99, res.P999, res.Max)
	fmt.Printf("  max GC pause       %v\n", res.MaxPause)
	if cfg.MaxConcurrentGC > 0 {
		a := res.Arbiter
		fmt.Printf("  arbiter            %d grants, %d waits (%v total, %v max), %d deferrals, %d aging breaks\n",
			a.Grants, a.Waits, a.TotalWaitNs, a.MaxWaitNs, a.Deferrals, a.AgingBreaks)
	}
	fmt.Printf("  commit hash        %#016x\n", res.CommitHash)
	for _, u := range m.MemReport().Tenants {
		fmt.Printf("  tenant %-10s %d/%d pages charged (peak %d), pressure %s\n",
			u.Name, u.Charged, u.CapFrames, u.Peak, u.Pressure)
	}
	return tr, res.Elapsed, nil
}

// die reports a bad invocation (code 2) or a failed run (code 1) and
// exits.
func die(code int, msg ...any) {
	fmt.Fprintln(os.Stderr, "svagc: "+fmt.Sprint(msg...))
	os.Exit(code)
}
