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
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/gc"
	"repro/internal/gc/svagc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/smr"
)

func main() {
	var (
		benchName = flag.String("bench", "", "workload name, or a comma-separated list to fan out (see -list)")
		collector = flag.String("gc", jvm.CollectorSVAGC, "collector: svagc, svagc-memmove, parallelgc, shenandoah, parallelgc-swapva, shenandoah-swapva, copygc")
		factor    = flag.Float64("heap", 1.2, "heap size as a factor of the workload's minimum")
		workers   = flag.Int("gcworkers", 4, "GC threads")
		jvms      = flag.Int("jvms", 1, "modelled co-running JVM count")
		threshold = flag.Int("threshold", 0, "SwapVA threshold override in pages (svagc only)")
		mach      = flag.String("machine", "gold6130", "cost model (gold6130, gold6240, i5-7600)")
		seed      = flag.Int64("seed", 42, "workload seed")
		list      = flag.Bool("list", false, "list workloads and exit")
		pauses    = flag.Bool("pauses", false, "print every pause record")
		gclog     = flag.Bool("gclog", false, "stream -Xlog:gc style lines to stderr as pauses happen")
		histo     = flag.Bool("histo", false, "print a class histogram of the final heap (jmap -histo style)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (load in chrome://tracing or Perfetto)")
		metrics   = flag.String("metrics", "", "write a Prometheus text-format metrics snapshot of the run")
		spillOut  = flag.String("trace-spill", "", "stream trace events to this file as JSON lines when ring buffers fill (implies tracing; nothing is dropped)")
		traceBuf  = flag.Int("trace-buf", 0, "trace ring size in events per context (0 = default 8192; with -trace-spill this is the flush batch size)")
		sockets   = flag.Int("sockets", 1, "sockets (NUMA nodes) the simulated cores are split over")
		numaPol   = flag.String("numa-policy", "", "page placement on multi-socket machines: first-touch, interleave, or bind[:N]")
		numaGC    = flag.String("numa-gc", "", "GC worker placement on multi-socket machines: spread or local (svagc only)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "machines simulated at once when -bench lists several workloads (1 = one at a time)")
		faultPln  = flag.String("fault-plan", "", "fault-injection plan: comma-separated site=rate (sites: pte-lock, ipi-ack, swapva, poison, interconnect, far-write, all), e.g. 'swapva=0.01,poison=1e-4'")
		faultRt   = flag.Float64("fault-rate", 0, "uniform fault rate applied to every site (per-site -fault-plan entries override it)")
		faultSd   = flag.Int64("fault-seed", 0, "fault-injection seed; the same seed and plan replay the identical fault sequence (0 = workload seed)")
		watchdogD = flag.Duration("watchdog", 0, "arm the GC watchdog: abort with diagnostics when a phase exceeds this simulated duration (svagc, svagc-memmove, copygc)")
		soakDur   = flag.Duration("soak", 0, "run the memory-pressure soak loop for this host duration instead of a workload (uses -gc, -gcworkers, -seed, -watchdog, and the swap-tier knobs)")
		swapTier  = flag.Int64("swap-tier", 0, "far (NVMe) swap-tier capacity in MiB; arms the far-memory swap plane on the simulated machine (0 with -zpool 0 = disabled, the bit-exact historical simulator)")
		zpool     = flag.Int64("zpool", 0, "compressed-RAM zpool budget in MiB in front of the far tier")
		farLat    = flag.Int64("far-lat", 0, "far-device access latency in ns (0 = default 10000)")
		physMiB   = flag.Int64("phys", 0, "bound the simulated machine's physical RAM in MiB (0 = unbounded; required with the swap-tier knobs in workload mode — the soak loop sizes its own pool)")
		tenants   = flag.Int("tenants", 0, "tenant count: replicas for -smr, capped tenants churning in turn for -soak (0 = single-tenant)")
		tenantCap = flag.Int64("tenant-cap", 0, "per-tenant memory cap in MiB; in workload mode the JVM runs as a capped tenant with its own pressure ladder (0 = uncapped)")
		gcArb     = flag.Int("gc-arbiter", 0, "arm the machine-wide GC arbiter with this concurrent-collection bound (0 = unarbitrated)")
		smrHeap   = flag.Int64("smr", 0, "run the raft-style SMR cluster workload with this replica heap size in MiB instead of a -bench workload (uses -gc, -gcworkers, -seed, -tenants, -tenant-cap, -gc-arbiter)")
	)
	flag.Parse()

	// Below 1 the collectors and the machine would run a default count
	// the report does not show.
	if *workers < 1 || *jvms < 1 {
		fmt.Fprintln(os.Stderr, "svagc: -gcworkers and -jvms must be at least 1")
		os.Exit(2)
	}
	swapCfg := swaptier.Config{FarBytes: *swapTier << 20, ZpoolBytes: *zpool << 20, FarLatNs: sim.Time(*farLat)}
	if swapCfg.Enabled() {
		if err := swapCfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "svagc:", err)
			os.Exit(2)
		}
	}

	if *list {
		for _, s := range workloads.Registry() {
			fmt.Printf("%-16s %-12s paper: %4d threads, %s; scaled: %d threads, %.1f MiB min heap\n",
				s.Name, s.Suite, s.PaperThreads, s.PaperHeap, s.Threads, float64(s.MinHeapBytes)/(1<<20))
		}
		return
	}
	if *soakDur > 0 {
		res, err := soak.Run(soak.Config{
			Collector:       *collector,
			GCWorkers:       *workers,
			Duration:        *soakDur,
			Watchdog:        sim.Time(watchdogD.Nanoseconds()),
			Seed:            *seed,
			Swap:            swapCfg,
			Tenants:         *tenants,
			TenantCapFrames: int(*tenantCap << 20 >> mem.PageShift),
			Log:             os.Stderr,
		})
		if res != nil {
			fmt.Println("soak:", res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "svagc: soak:", err)
			os.Exit(1)
		}
		return
	}
	if *smrHeap > 0 {
		if *spillOut != "" {
			fmt.Fprintln(os.Stderr, "svagc: -trace-spill needs a -bench workload, not -smr")
			os.Exit(2)
		}
		if err := runSMR(*mach, *collector, *smrHeap<<20, *tenants, *workers,
			*seed, *tenantCap, *gcArb, *faultPln, *faultRt, *faultSd, *traceOut, *metrics, *traceBuf); err != nil {
			fmt.Fprintln(os.Stderr, "svagc: smr:", err)
			os.Exit(1)
		}
		return
	}
	if *benchName == "" {
		fmt.Fprintln(os.Stderr, "svagc: -bench is required (try -list)")
		os.Exit(2)
	}
	if swapCfg.Enabled() && *physMiB == 0 {
		fmt.Fprintln(os.Stderr, "svagc: the swap tier reclaims against a bounded pool: set -phys (MiB of simulated RAM) with -swap-tier/-zpool")
		os.Exit(2)
	}
	benches := strings.Split(*benchName, ",")
	cost, err := sim.ModelByName(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svagc:", err)
		os.Exit(2)
	}
	policy, bind, err := topology.ParsePolicy(*numaPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svagc:", err)
		os.Exit(2)
	}
	place, err := gc.ParsePlacement(*numaGC)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svagc:", err)
		os.Exit(2)
	}
	// The threshold and placement overrides reach only the SVAGC preset;
	// anywhere else the run would silently ignore them.
	if *threshold < 0 {
		fmt.Fprintln(os.Stderr, "svagc: -threshold must be positive (0 = the 10-page default)")
		os.Exit(2)
	}
	if (*threshold > 0 || *numaGC != "") && *collector != jvm.CollectorSVAGC {
		fmt.Fprintf(os.Stderr, "svagc: -threshold and -numa-gc apply only to -gc %s, not %s\n",
			jvm.CollectorSVAGC, *collector)
		os.Exit(2)
	}
	faultPlan, err := fault.ParsePlanWithRate(*faultPln, *faultRt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svagc:", err)
		os.Exit(2)
	}
	faultSeed := *faultSd
	if faultSeed == 0 {
		faultSeed = *seed
	}
	// cfgFor builds the JVM configuration for one workload spec, honouring
	// the SVAGC-only threshold/placement overrides and the watchdog
	// deadline.
	deadline := sim.Time(watchdogD.Nanoseconds())
	cfgFor := func(spec *workloads.Spec) (jvm.Config, error) {
		heapBytes := spec.MinHeap(*factor)
		if (*threshold > 0 || place != gc.PlaceSpread) && *collector == jvm.CollectorSVAGC {
			sc := svagc.Config{Workers: *workers, ThresholdPages: *threshold,
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
		cfg, ok := jvm.ConfigForDeadline(*collector, heapBytes, spec.Threads, *workers, deadline)
		if !ok {
			return jvm.Config{}, fmt.Errorf("unknown collector %q (want %v)", *collector, jvm.CollectorNames())
		}
		return cfg, nil
	}

	// report renders one run's summary.
	report := func(w io.Writer, spec *workloads.Spec, m *machine.Machine, j *jvm.JVM) {
		st := j.GC.Stats()
		fmt.Fprintf(w, "%s under %s on %s (%.1fx min heap = %.1f MiB, %d mutator threads, %d GC workers, %d JVMs)\n",
			spec.Name, j.GC.Name(), cost.Name, *factor, float64(spec.MinHeap(*factor))/(1<<20), spec.Threads, *workers, *jvms)
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
		for _, f := range []struct {
			name string
			set  bool
		}{{"-trace-spill", *spillOut != ""}, {"-gclog", *gclog}} {
			if f.set {
				fmt.Fprintf(os.Stderr, "svagc: %s needs a single -bench workload, not a list\n", f.name)
				os.Exit(2)
			}
		}
	}
	specs := make([]*workloads.Spec, len(benches))
	cfgs := make([]jvm.Config, len(benches))
	for i, name := range benches {
		if specs[i], err = workloads.ByName(strings.TrimSpace(name)); err == nil {
			cfgs[i], err = cfgFor(specs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "svagc:", err)
			os.Exit(2)
		}
	}

	mc := machine.Config{Cost: cost, Sockets: *sockets, NUMAPolicy: policy,
		NUMABind: bind, PhysBytes: *physMiB << 20, Swap: swapCfg}
	traced := *traceOut != "" || *metrics != "" || *spillOut != ""
	// runOne executes one workload on its own machine and renders its
	// whole report, so every run takes the same path at any list length.
	runOne := func(i int) run {
		spec, cfg := specs[i], cfgs[i]
		// Each machine gets its own injector so every run replays the
		// exact fault sequence its seed dictates.
		mcfg := mc
		mcfg.Fault = fault.New(faultSeed, faultPlan)
		m, err := machine.New(mcfg)
		if err != nil {
			return run{err: err}
		}
		if *jvms > 1 {
			m.SetActiveJVMs(*jvms)
		}
		var tr *trace.Tracer
		if traced {
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
			if cfg.Tenant, err = m.NewTenant("tenant0", int(*tenantCap<<20>>mem.PageShift)); err != nil {
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
		if err := spec.Run(j, *seed); err != nil {
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

	tracers := runMany(benches, *parallel, runOne)
	if *traceOut != "" {
		if err := writeFile(*traceOut, trace.ChromeTraceOf(tracers...).Write); err != nil {
			fmt.Fprintln(os.Stderr, "svagc: trace:", err)
			os.Exit(1)
		}
	}
	if *metrics != "" {
		if err := writeFile(*metrics, trace.SnapshotOf(tracers...).WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, "svagc: metrics:", err)
			os.Exit(1)
		}
	}
}

// runSMR runs the raft-style SMR cluster workload: -tenants replicas
// (default 3), each a capped tenant JVM, collections arbitrated when
// -gc-arbiter is set, leader churn driven by GC pauses.
func runSMR(mach, collector string, heapBytes int64, replicas, workers int,
	seed, tenantCapMiB int64, maxConcurrentGC int,
	faultPln string, faultRt float64, faultSd int64, traceOut, metrics string, traceBuf int) error {

	cost, err := sim.ModelByName(mach)
	if err != nil {
		return err
	}
	faultPlan, err := fault.ParsePlanWithRate(faultPln, faultRt)
	if err != nil {
		return err
	}
	if faultSd == 0 {
		faultSd = seed
	}
	m, err := machine.New(machine.Config{
		Cost:  cost,
		Fault: fault.New(faultSd, faultPlan),
	})
	if err != nil {
		return err
	}
	var tr *trace.Tracer
	if traceOut != "" || metrics != "" {
		tr = m.EnableTracing(traceBuf)
	}
	capFrames := int(tenantCapMiB << 20 >> mem.PageShift)
	if capFrames <= 0 {
		// Default cap: heap plus a copying collector's to-space plus slack.
		capFrames = 2*int(heapBytes>>mem.PageShift) + 64
	}
	res, err := smr.Run(m, smr.Config{
		Collector:       collector,
		Replicas:        replicas,
		HeapBytes:       heapBytes,
		GCWorkers:       workers,
		Seed:            seed,
		CapFrames:       capFrames,
		MaxConcurrentGC: maxConcurrentGC,
	})
	if err != nil {
		return err
	}
	fmt.Printf("smr cluster: %d replicas under %s on %s (%.1f MiB heap each, cap %d frames)\n",
		res.Replicas, collector, cost.Name, float64(heapBytes)/(1<<20), capFrames)
	fmt.Printf("  rounds/commits     %d / %d\n", res.Rounds, res.Commits)
	fmt.Printf("  leader churn       %d failovers, %d evictions, %d entries replayed\n",
		res.Failovers, res.Evictions, res.ReplayEntries)
	fmt.Printf("  commit latency     p50 %v, p99 %v, p99.9 %v, max %v\n",
		res.P50, res.P99, res.P999, res.Max)
	fmt.Printf("  max GC pause       %v\n", res.MaxPause)
	if maxConcurrentGC > 0 {
		a := res.Arbiter
		fmt.Printf("  arbiter            %d grants, %d waits (%v total, %v max), %d deferrals, %d aging breaks\n",
			a.Grants, a.Waits, a.TotalWaitNs, a.MaxWaitNs, a.Deferrals, a.AgingBreaks)
	}
	fmt.Printf("  commit hash        %#016x\n", res.CommitHash)
	for _, u := range m.MemReport().Tenants {
		fmt.Printf("  tenant %-10s %d/%d pages charged (peak %d), pressure %s\n",
			u.Name, u.Charged, u.CapFrames, u.Peak, u.Pressure)
	}
	if traceOut != "" {
		if err := writeFile(traceOut, tr.WriteChromeJSON); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if metrics != "" {
		if err := writeFile(metrics, trace.SnapshotOf(tr).WritePrometheus); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// run is one workload's outcome: its buffered report, the simulated
// time it covered, and its tracer when tracing is on.
type run struct {
	text  string
	sim   sim.Time
	trace *trace.Tracer
	err   error
}

// runMany runs the listed workloads side by side, one goroutine each,
// with at most parallel machines in flight. Every run builds its own
// Machine, so runs share no simulated state; the reports are buffered and
// printed in input order no matter which run finishes first, so the
// stdout of `-bench A,B -parallel 8` is byte-identical to `-parallel 1`.
// It returns the runs' tracers in input order.
func runMany(names []string, parallel int, runOne func(i int) run) []*trace.Tracer {
	wallStart := time.Now()
	results := make([]run, len(names))
	slots := make(chan struct{}, max(parallel, 1))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			results[i] = runOne(i)
			<-slots
		}()
	}
	wg.Wait()

	var simTotal sim.Time
	var tracers []*trace.Tracer
	failed := false
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "svagc: %s: %v\n", strings.TrimSpace(names[i]), r.err)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.text)
		simTotal += r.sim
		if r.trace != nil {
			tracers = append(tracers, r.trace)
		}
	}
	simRate(len(names), simTotal, time.Since(wallStart))
	if failed {
		os.Exit(1)
	}
	return tracers
}

// simRate prints the simulation-throughput summary to stderr: how much
// simulated time the run(s) covered per unit of host wall time.
func simRate(runs int, simulated sim.Time, wall time.Duration) {
	w := wall.Seconds()
	if w <= 0 {
		w = 1e-9
	}
	fmt.Fprintf(os.Stderr,
		"svagc: %d run(s), %.3fs simulated in %.2fs wall — %.0f sim-ns/host-ms, %.2f runs/s\n",
		runs, simulated.Seconds(), w, float64(simulated)/(w*1e3), float64(runs)/w)
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
