package main

import (
	"fmt"
	"runtime"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/workloads"
	"repro/internal/workloads/smr"
)

// workload is one named benchmark input: the runs one pass executes, in
// order, and the shape of the simulated machine each run builds. Every
// run builds a fresh machine, so passes are independent and each pass of
// a seed reproduces the same simulated digests.
type workload struct {
	name string
	runs []runDef
	// phys and swap bound physical memory and arm the far-memory tier;
	// zero is the unbounded, swap-free machine of the paper figures.
	phys int64
	swap swaptier.Config
}

// runDef is one run: a workloads.Spec under a collector preset, or, with
// bench empty, one SMR cluster whose replicas all run the collector.
type runDef struct {
	bench     string
	collector string
}

func (d runDef) label() string {
	if d.bench == "" {
		return "smr/" + d.collector
	}
	return d.bench + "/" + d.collector
}

const (
	heapFactor = 1.2 // heap = 1.2x the workload's minimum, the paper's setting
	gcWorkers  = 4   // per-JVM GC workers, the experiment harness default
)

// smr-cluster is the smr1 figure's cell at its 32 MiB point: three capped
// replicas, 80 rounds, a 4 ms election timeout and an arbiter admitting
// one collection at a time.
const (
	smrHeap      = 32 << 20
	smrReplicas  = 3
	smrRounds    = 80
	smrTimeoutNs = sim.Time(4_000_000)
)

// benchWorkloads lists the benchmark's workloads; BENCHMARK.json says why
// each was chosen and benchmark/README.md which layers each stresses.
func benchWorkloads() []workload {
	large := []string{"LRUCache", "Sigverify", "Parallelsort", "LU.large", "SOR.large x10", "FFT.large"}
	// LRUCache stays out of far-memory: under copygc with a swap tier its
	// allocation and tier traffic differ by up to a third between seeds,
	// which would make the seed, not the code, set the workload's spread.
	far := []string{"Sigverify", "Parallelsort"}
	return []workload{
		{name: "swap-large", runs: runDefs(large, jvm.CollectorSVAGC)},
		{name: "copy-large", runs: runDefs(large, jvm.CollectorSVAGCBase)},
		{name: "graph-small", runs: runDefs([]string{"Bisort", "Compress"}, jvm.CollectorSVAGC)},
		{name: "smr-cluster", runs: []runDef{{"", jvm.CollectorSVAGC}, {"", jvm.CollectorCopy}}},
		{name: "far-memory", runs: runDefs(far, jvm.CollectorSVAGC, jvm.CollectorCopy),
			phys: 8 << 20, swap: swaptier.Config{ZpoolBytes: 2 << 20, FarBytes: 128 << 20}},
	}
}

// runDefs runs every bench under each collector in turn.
func runDefs(benches []string, collectors ...string) []runDef {
	var out []runDef
	for _, c := range collectors {
		for _, b := range benches {
			out = append(out, runDef{b, c})
		}
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simTotals is what the simulator reports for a run or a pass. Every
// field is simulated and repeats exactly for a given seed.
type simTotals struct {
	app, pause, pauseMax sim.Time
	phases               gc.PhaseTimes
	full, minor          int
	perf                 sim.Perf // mutators, GC and kswapd
	shootdowns           uint64
	tierOut, tierIn      uint64

	// SMR clusters only.
	failovers, evictions, replayed int
	commitP99                      sim.Time
	arbiterWaits                   uint64
	arbiterWait                    sim.Time
}

func (t *simTotals) add(o simTotals) {
	t.app += o.app
	t.pause += o.pause
	t.pauseMax = sim.Max(t.pauseMax, o.pauseMax)
	t.phases.Mark += o.phases.Mark
	t.phases.Forward += o.phases.Forward
	t.phases.Adjust += o.phases.Adjust
	t.phases.Compact += o.phases.Compact
	t.full += o.full
	t.minor += o.minor
	t.perf.Add(&o.perf)
	t.shootdowns += o.shootdowns
	t.tierOut += o.tierOut
	t.tierIn += o.tierIn
	t.failovers += o.failovers
	t.evictions += o.evictions
	t.replayed += o.replayed
	t.commitP99 = sim.Max(t.commitP99, o.commitP99)
	t.arbiterWaits += o.arbiterWaits
	t.arbiterWait += o.arbiterWait
}

// runOutcome is one run's host timings, simulated results and verdict.
// The timed region is machine.New + jvm.New + Spec.Run (or smr.Run);
// verification and digesting happen outside it.
type runOutcome struct {
	label      string
	machineNew float64 // host s
	jvmNew     float64 // host s; 0 for SMR clusters, which build their JVMs inside smr.Run
	body       float64 // host s in Spec.Run or smr.Run
	collect    float64 // host s inside Collect, JVM runs only
	verify     float64 // host s in Heap.VerifyIntegrity
	alloc      uint64  // Go heap bytes allocated in the timed region
	sim        simTotals
	digest     uint64
	err        error
}

// timedCollector is the collector-factory decorator: each Collect becomes
// a span and its host time accumulates into *total.
type timedCollector struct {
	gc.Collector
	rec   *recorder
	total *float64
}

func (c *timedCollector) Collect(ctx *machine.Context, cause gc.Cause) (*gc.PauseInfo, error) {
	m := c.rec.begin("Collect")
	p, err := c.Collector.Collect(ctx, cause)
	*c.total += c.rec.end(m)
	return p, err
}

// totalAlloc is the Go runtime's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func machineConfig(w workload) machine.Config {
	return machine.Config{Cost: sim.XeonGold6130(), SingleDriver: true,
		PhysBytes: w.phys, Swap: w.swap}
}

// runJVM executes one workloads.Spec run and verifies its heap.
func runJVM(rec *recorder, w workload, d runDef, seed int64) runOutcome {
	out := runOutcome{label: d.label()}
	spec, err := workloads.ByName(d.bench)
	if err != nil {
		out.err = err
		return out
	}
	cfg, ok := jvm.ConfigFor(d.collector, spec.MinHeap(heapFactor), spec.Threads, gcWorkers)
	if !ok {
		out.err = fmt.Errorf("unknown collector %q", d.collector)
		return out
	}
	newCollector := cfg.NewCollector
	cfg.NewCollector = func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
		return &timedCollector{Collector: newCollector(h, roots), rec: rec, total: &out.collect}
	}

	a0 := totalAlloc()
	s := rec.begin("machine.New")
	m, err := machine.New(machineConfig(w))
	out.machineNew = rec.end(s)
	if err != nil {
		out.err = err
		return out
	}
	s = rec.begin("jvm.New")
	j, err := jvm.New(m, cfg)
	out.jvmNew = rec.end(s)
	if err != nil {
		out.err = err
		return out
	}
	s = rec.begin("Spec.Run")
	err = spec.Run(j, seed)
	out.body = rec.end(s)
	out.alloc = totalAlloc() - a0
	if err != nil {
		out.err = err
		return out
	}

	st := j.GC.Stats()
	perf := j.TotalPerf()
	if kp := m.KswapdPerf(); kp != nil {
		perf.Add(kp)
	}
	out.sim = simTotals{
		app: j.AppTime(), pause: st.TotalPause(""), pauseMax: st.MaxPause(""),
		phases: st.PhaseTotals(""), full: st.Count(gc.KindFull), minor: st.Count(gc.KindMinor),
		perf: perf, shootdowns: m.Shootdowns(),
	}
	if tier := m.SwapTier(); tier != nil {
		ts := tier.Stats()
		out.sim.tierOut, out.sim.tierIn = ts.OutPages, ts.InPages
	}
	out.digest = digestJVM(j, st, &out.sim)

	// Verification comes after the digest: retiring the mutators' TLABs
	// writes filler objects, which the simulator charges (here to a
	// throwaway context), so the heap parses below Top.
	s = rec.begin("verify")
	err = j.Heap.RetireAllTLABs(m.NewContext(0))
	if err == nil {
		roots := j.Roots.Snapshot()
		objs := make([]heap.Object, len(roots))
		for i, r := range roots {
			objs[i] = r.Obj
		}
		err = j.Heap.VerifyIntegrity(objs)
	}
	out.verify = rec.end(s)
	if err != nil {
		out.err = fmt.Errorf("heap verification: %w", err)
	}
	return out
}

// runSMR executes one SMR cluster run.
func runSMR(rec *recorder, w workload, d runDef, seed int64) runOutcome {
	out := runOutcome{label: d.label()}
	a0 := totalAlloc()
	s := rec.begin("machine.New")
	m, err := machine.New(machineConfig(w))
	out.machineNew = rec.end(s)
	if err != nil {
		out.err = err
		return out
	}
	s = rec.begin("smr.Run")
	res, err := smr.Run(m, smr.Config{
		Collector:         d.collector,
		Replicas:          smrReplicas,
		HeapBytes:         smrHeap,
		Rounds:            smrRounds,
		ElectionTimeoutNs: smrTimeoutNs,
		GCWorkers:         gcWorkers,
		Seed:              seed,
		CapFrames:         2*(smrHeap>>mem.PageShift) + 64,
		MaxConcurrentGC:   1,
	})
	out.body = rec.end(s)
	out.alloc = totalAlloc() - a0
	if err != nil {
		out.err = err
		return out
	}
	if res.Commits != res.Rounds {
		out.err = fmt.Errorf("%d of %d rounds committed", res.Commits, res.Rounds)
		return out
	}
	out.sim = simTotals{
		pauseMax: res.MaxPause, shootdowns: m.Shootdowns(),
		failovers: res.Failovers, evictions: res.Evictions, replayed: res.ReplayEntries,
		commitP99: res.P99, arbiterWaits: res.Arbiter.Waits, arbiterWait: res.Arbiter.TotalWaitNs,
	}
	out.digest = digestSMR(res, m.Shootdowns())
	return out
}
