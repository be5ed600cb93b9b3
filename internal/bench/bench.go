// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§V), each regenerating the same rows
// or series the paper reports, on the simulated machine. Results are
// deterministic; EXPERIMENTS.md records the paper-vs-measured comparison.
package bench

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/gc"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options configures a harness run.
type Options struct {
	// Cost selects the machine model (default Xeon Gold 6130, the
	// paper's main testbed).
	Cost *sim.CostModel
	// GCWorkers is the per-JVM GC thread count (default 4, as in the
	// paper's multi-JVM experiments).
	GCWorkers int
	// Quick trims sweeps and benchmark lists so tests finish fast; full
	// runs regenerate every series.
	Quick bool
	// Seed feeds the workloads (default 42).
	Seed int64
	// Sockets splits the simulated machine's cores over that many sockets
	// (<= 0 means 1, the flat machine every figure was calibrated on).
	Sockets int
	// NUMAPolicy / NUMABind select the default page placement on
	// multi-socket machines (see topology.ParsePolicy).
	NUMAPolicy topology.Policy
	NUMABind   int
	// FaultPlan / FaultRate / FaultSeed configure deterministic fault
	// injection on every machine NewMachine builds (see
	// fault.ParsePlanWithRate). An empty plan with a zero rate disables
	// injection entirely; the seed defaults to the workload seed so a run
	// is fully described by its flags.
	FaultPlan string
	FaultRate float64
	FaultSeed int64
	// Trace arms a tracer (machine.EnableTracing) on every machine
	// NewMachine builds. The tracer is a run-owned artifact like the
	// run's result: a memoised run keeps it next to its result, and
	// RunExperiments lists each experiment's tracers in Result.Traces.
	Trace bool
	// Parallel is the number of machine slots a sweep shares (<= 1 means
	// one): every machine the harness builds is built and driven while
	// holding a slot, so at most Parallel machines are in flight at once.
	// Results are byte-identical at any setting: each figure assembles its
	// rows from its runs in input order, whichever finished first.
	Parallel int
	// Swap overrides the backing-tier shape of the machines whose shape
	// arms a tier: each nonzero field replaces that field of oversub1's
	// built-in tier, and svagc -phys arms it as given. NewMachine never
	// reads it; the paper-reproduction figures are never swap-armed,
	// preserving bit-exact parity with the seed.
	Swap swaptier.Config

	// traces, when non-nil, collects the tracers of the runs a figure
	// reads, in read order. RunExperiments sets it per experiment.
	traces *[]*trace.Tracer
	// slots are the sweep's Parallel machine slots (see hold).
	slots *slots
}

func (o Options) cost() *sim.CostModel { return cmp.Or(o.Cost, sim.XeonGold6130()) }

func (o Options) workers() int {
	if o.GCWorkers <= 0 {
		return 4
	}
	return o.GCWorkers
}

func (o Options) seed() int64 { return cmp.Or(o.Seed, 42) }

func (o Options) sockets() int { return max(o.Sockets, 1) }

// slots is one sweep's set of Parallel machine slots, the harness's only
// bound on host concurrency.
type slots struct {
	free chan struct{}
	peak atomic.Int64 // most machines ever in flight at once
}

// sweep returns o with a fresh set of Parallel machine slots unless o
// already belongs to a sweep.
func (o Options) sweep() Options {
	if o.slots == nil {
		o.slots = &slots{free: make(chan struct{}, max(o.Parallel, 1))}
	}
	return o
}

// hold runs cell while holding one of the sweep's machine slots, waiting
// for one to free up, and counts it in HarnessStats with the simulated
// time cell reports. cell builds and drives one machine (fig10: one
// threshold sweep). Every NewMachine in this package runs inside a hold
// and no hold nests, so at most Parallel machines are in flight.
func (o Options) hold(cell func() (sim.Time, error)) error {
	s := o.sweep().slots
	s.free <- struct{}{}
	n := int64(len(s.free))
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	simulated, err := cell()
	<-s.free
	harnessRuns.Add(1)
	harnessSimNs.Add(uint64(simulated))
	return err
}

// record lists a run's tracer in the experiment's Result.Traces.
func (o Options) record(t *trace.Tracer) {
	if o.traces != nil && t != nil {
		*o.traces = append(*o.traces, t)
	}
}

// NewMachine builds one machine of the run, the only way the harness and
// svagc build one. shape names only what the caller pins: a cost model
// it sweeps or was measured on, sockets and placement, a bounded pool,
// watermarks, a swap tier. Options fill what shape leaves zero: the cost
// model, and sockets and placement when shape sets no Sockets. Every
// machine gets a fresh fault injector, so each replays the fault sequence
// its seed dictates, and under Trace an armed tracer (m.Tracer()).
func (o Options) NewMachine(shape machine.Config) (*machine.Machine, error) {
	shape.Cost = cmp.Or(shape.Cost, o.cost())
	if shape.Sockets == 0 {
		shape.Sockets, shape.NUMAPolicy, shape.NUMABind = o.sockets(), o.NUMAPolicy, o.NUMABind
	}
	plan, err := fault.ParsePlanWithRate(o.FaultPlan, o.FaultRate)
	if err != nil {
		return nil, err
	}
	shape.Fault = fault.New(cmp.Or(o.FaultSeed, o.seed()), plan)
	m, err := machine.New(shape)
	if err == nil && o.Trace {
		m.EnableTracing(0)
	}
	return m, err
}

// Result is a rendered experiment: a titled table plus free-form notes.
type Result struct {
	ID     string
	Title  string
	Paper  string // the paper's reported shape, for side-by-side reading
	Notes  []string
	Header []string
	Rows   [][]string
	// Traces are the tracers of the runs this result read, in the order
	// its serial assembly pass read them; a run shared with an earlier
	// read is listed again. RunExperiments fills it under Options.Trace.
	Traces []*trace.Tracer
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt Options) (*Result, error)
}

// Registry returns every experiment, ordered as in the paper.
func Registry() []*Experiment {
	return []*Experiment{
		{ID: "fig1", Title: "Full-GC phase breakdown (compaction dominates)", Run: Fig1PhaseBreakdown},
		{ID: "fig2", Title: "Multi-JVM LRU-cache scalability under ParallelGC", Run: Fig2MultiJVM},
		{ID: "fig6", Title: "Aggregated vs separated SwapVA calls", Run: Fig6Aggregation},
		{ID: "fig8", Title: "PMD caching benefit", Run: Fig8PMDCaching},
		{ID: "fig9", Title: "Multi-core SwapVA: pinned vs per-call shootdowns", Run: Fig9MultiCore},
		{ID: "fig10", Title: "SwapVA/memmove break-even threshold on two machines", Run: Fig10Threshold},
		{ID: "fig11", Title: "GC time -/+ SwapVA per benchmark", Run: Fig11SwapVAGain},
		{ID: "fig12", Title: "Average full-GC latency vs ParallelGC/Shenandoah", Run: Fig12AvgLatency},
		{ID: "fig13", Title: "Maximum GC latency vs ParallelGC/Shenandoah", Run: Fig13MaxLatency},
		{ID: "fig14", Title: "SVAGC single vs multi-JVM scalability", Run: Fig14SVAGCScalability},
		{ID: "fig15", Title: "Application throughput of SVAGC (+/- SwapVA)", Run: Fig15AppThroughput},
		{ID: "fig16", Title: "Application throughput vs ParallelGC/Shenandoah", Run: Fig16VsBaselines},
		{ID: "table1", Title: "Applicability of SwapVA and optimisations", Run: Table1Applicability},
		{ID: "table2", Title: "Benchmark configurations", Run: Table2Benchmarks},
		{ID: "table3", Title: "Cache & DTLB misses, memmove vs SwapVA", Run: Table3PerfCounters},
		{ID: "ext1", Title: "Extension: SwapVA across GC designs (Table I in action)", Run: Ext1PhaseMatrix},
		{ID: "ext2", Title: "Extension: heap on non-volatile memory", Run: Ext2NVMHeap},
		{ID: "ext3", Title: "Extension: 2 MiB (PMD-entry) huge swaps", Run: Ext3HugePages},
		{ID: "numa1", Title: "Extension: SwapVA shootdown scaling, 1 vs 2 sockets", Run: NUMA1ShootdownScaling},
		{ID: "oom1", Title: "Extension: full GC under memory pressure (SwapVA vs byte-copy)", Run: OOM1MemoryPressure},
		{ID: "oversub1", Title: "Extension: far-memory oversubscription (swap tier + kswapd reclaim)", Run: OversubFarMemory},
		{ID: "smr1", Title: "Extension: SMR leader churn under GC pauses (capped tenants + GC arbiter)", Run: SMRLeaderChurn},
	}
}

// RunExperiments executes exps and invokes emit exactly once per
// experiment, in input order. Every experiment runs on its own goroutine,
// all sharing one set of opt.Parallel machine slots (see hold); runs
// shared between figures (fig12/fig13/fig16 share every baseline) execute
// once through the run cache's singleflight slots. Output and traces do
// not depend on the width, only wall time does. wallSeconds is measured
// per experiment, so experiments' wall times overlap at any width.
func RunExperiments(opt Options, exps []*Experiment,
	emit func(i int, res *Result, err error, wallSeconds float64)) {

	opt = opt.sweep()
	type outcome struct {
		res  *Result
		err  error
		wall float64
		done chan struct{}
	}
	outs := make([]outcome, len(exps))
	for i, e := range exps {
		outs[i].done = make(chan struct{})
		go func() {
			defer close(outs[i].done)
			start := hostNow()
			var traces []*trace.Tracer
			o := opt
			o.traces = &traces
			if outs[i].res, outs[i].err = e.Run(o); outs[i].res != nil {
				outs[i].res.Traces = traces
			}
			outs[i].wall = hostNow() - start
		}()
	}
	for i := range outs {
		<-outs[i].done
		emit(i, outs[i].res, outs[i].err, outs[i].wall)
	}
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// IDs lists experiment IDs.
func IDs() []string {
	regs := Registry()
	ids := make([]string, len(regs))
	for i, e := range regs {
		ids[i] = e.ID
	}
	return ids
}

// --- workload run cache -------------------------------------------------------

// runResult captures everything the figures need from one workload
// execution under one collector.
type runResult struct {
	AppTime   sim.Time
	GCTotal   sim.Time
	GCMax     sim.Time
	GCAvg     sim.Time
	GCAvgFull sim.Time
	GCMaxFull sim.Time
	Fulls     int
	Phases    gc.PhaseTimes // full collections only
	Perf      sim.Perf
	trace     *trace.Tracer // the run's machine tracer under Options.Trace
}

// cacheCall is one singleflight slot of the run cache: the first caller
// to claim a key computes it under the sync.Once while every concurrent
// caller for the same key blocks on that Once and then shares the result
// — a run shared by two figures sweeping in parallel is executed exactly
// once, never twice and never serially behind an unrelated run.
type cacheCall struct {
	once sync.Once
	r    *runResult
	err  error
}

var (
	cacheMu  sync.Mutex
	runCache = map[string]*cacheCall{}

	// harnessRuns / harnessSimNs count every machine run (every hold)
	// since process start and the simulated time those runs covered; a
	// run cache hit builds no machine and counts nothing. Flags.Finish
	// reports them as a command's end-of-run harness line.
	harnessRuns  atomic.Uint64
	harnessSimNs atomic.Uint64
)

// cacheKey serialises every Options field that can change a runWorkload
// result, plus the run coordinates. Checklist — when adding a field to
// Options, decide its bucket and update TestCacheKeyCoversOptions:
//   - Cost, GCWorkers, Seed, Sockets, NUMAPolicy, NUMABind, FaultPlan,
//     FaultRate, FaultSeed: affect the simulated numbers → serialised
//     below.
//   - Trace: never changes the simulated numbers, but decides whether the
//     memoised run carries a tracer → serialised below, so an untraced
//     run never stands in for a traced one.
//   - Quick: only selects which runs a figure performs, never the outcome
//     of one run → excluded.
//   - Parallel, slots: host-side scheduling only → excluded.
//   - Swap: only read by shapes that arm a tier (oversub1), which never
//     pass through runWorkload — the cache never sees a swap-armed run →
//     excluded.
//   - traces: where an experiment lists the tracers it read → excluded.
//
// Floats are serialised with strconv.FormatFloat(f, 'g', -1, 64) — the
// shortest exact representation — because fixed-precision formatting
// (%.3f) collides factors that differ beyond its precision and would
// silently serve one factor's result for the other.
func cacheKey(opt Options, collector, bench string, factor float64, jvms int) string {
	return strings.Join([]string{
		opt.cost().Name, collector, bench,
		strconv.FormatFloat(factor, 'g', -1, 64),
		strconv.Itoa(jvms), strconv.Itoa(opt.workers()),
		strconv.FormatInt(opt.seed(), 10), strconv.Itoa(opt.sockets()),
		opt.NUMAPolicy.String(), strconv.Itoa(opt.NUMABind),
		opt.FaultPlan, strconv.FormatFloat(opt.FaultRate, 'g', -1, 64),
		strconv.FormatInt(opt.FaultSeed, 10), strconv.FormatBool(opt.Trace),
	}, "|")
}

// ResetCache clears memoised workload runs (tests use it between option
// changes that the key does not capture).
func ResetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	runCache = map[string]*cacheCall{}
}

// HarnessStats reports the machine runs performed and the simulated time
// they covered since process start, for simulation-rate summaries. Cache
// hits are not re-counted.
func HarnessStats() (runs uint64, simulated sim.Time) {
	return harnessRuns.Load(), sim.Time(harnessSimNs.Load())
}

// runSpec names one workload run of a figure sweep.
type runSpec struct {
	collector, bench string
	factor           float64
	jvms             int
}

// runAll performs a figure's workload runs side by side and returns each
// spec's result, or the first error in spec order. Runs are memoised, and
// concurrent requests for one spec (from this figure or another) share a
// single execution. It lists the runs' tracers in spec order, duplicates
// included, so a figure whose spec list follows its assembly order lists
// them as a serial pass would.
func runAll(opt Options, specs []runSpec) (map[runSpec]*runResult, error) {
	opt = opt.sweep()
	results := make([]*runResult, len(specs))
	if err := inParallel(len(specs), func(i int) (err error) {
		results[i], err = runWorkload(opt, specs[i])
		return err
	}); err != nil {
		return nil, err
	}
	out := make(map[runSpec]*runResult, len(specs))
	for i, s := range specs {
		out[s] = results[i]
		opt.record(results[i].trace)
	}
	return out, nil
}

// HoldEach runs cell(i) for every i in [0, n) side by side, each in a
// machine slot of o's sweep (see hold), and returns the first error in
// index order. A command that builds its own machines (svagc) runs each
// as a cell, so its runs share the bound and count in HarnessStats.
func (o Options) HoldEach(n int, cell func(i int) (sim.Time, error)) error {
	o = o.sweep()
	return inParallel(n, func(i int) error {
		return o.hold(func() (sim.Time, error) { return cell(i) })
	})
}

// inParallel calls cell(i) for every i in [0, n), each on its own
// goroutine, and once all have returned reports the first error in index
// order.
func inParallel(n int, cell func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cell(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorkload executes (and memoises) one benchmark under one collector at
// a heap factor, with jvms-1 modelled co-running JVMs. Concurrent callers
// with the same key deduplicate onto a single execution.
func runWorkload(opt Options, s runSpec) (*runResult, error) {
	key := cacheKey(opt, s.collector, s.bench, s.factor, s.jvms)
	cacheMu.Lock()
	call, ok := runCache[key]
	if !ok {
		call = &cacheCall{}
		runCache[key] = call
	}
	cacheMu.Unlock()
	call.once.Do(func() {
		call.r, call.err = computeWorkload(opt, s)
	})
	return call.r, call.err
}

// hostNow returns host wall-clock seconds (monotonic), for harness-rate
// reporting only — simulated results never read it.
func hostNow() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// computeWorkload is the uncached body of runWorkload: it builds a fresh
// Machine in a machine slot, runs the workload, and distils the figures'
// metrics. Each call is self-contained (no state shared with concurrent
// runs beyond the process-wide allocation counters, which are not
// observable in results), which is what makes host-parallel sweeps
// deterministic.
func computeWorkload(opt Options, s runSpec) (*runResult, error) {
	spec, err := workloads.ByName(s.bench)
	if err != nil {
		return nil, err
	}
	cfg, ok := jvm.ConfigFor(s.collector, spec.MinHeap(s.factor), spec.Threads, opt.workers())
	if !ok {
		return nil, fmt.Errorf("bench: unknown collector %q", s.collector)
	}
	var r *runResult
	err = opt.hold(func() (sim.Time, error) {
		m, err := opt.NewMachine(machine.Config{})
		if err != nil {
			return 0, err
		}
		if s.jvms > 1 {
			m.SetActiveJVMs(s.jvms)
		}
		j, err := jvm.New(m, cfg)
		if err != nil {
			return 0, err
		}
		if err := spec.Run(j, opt.seed()); err != nil {
			return 0, fmt.Errorf("bench: %s under %s (%.1fx heap): %w", s.bench, s.collector, s.factor, err)
		}
		st := j.GC.Stats()
		r = &runResult{
			AppTime:   j.AppTime(),
			GCTotal:   st.TotalPause(""),
			GCMax:     st.MaxPause(""),
			GCAvg:     st.AvgPause(""),
			GCAvgFull: st.AvgPause(gc.KindFull),
			GCMaxFull: st.MaxPause(gc.KindFull),
			Fulls:     st.Count(gc.KindFull),
			Phases:    st.PhaseTotals(gc.KindFull),
			Perf:      j.TotalPerf(),
			trace:     m.Tracer(),
		}
		return r.AppTime, nil
	})
	return r, err
}

// benchList returns the benchmark names a multi-benchmark figure sweeps:
// the full Table II set, or a representative subset in Quick mode.
func benchList(opt Options) []string {
	if opt.Quick {
		return []string{"Sparse.large/4", "Sigverify", "CryptoAES", "Bisort"}
	}
	names := workloads.Names()
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n == "LRUCache" {
			continue // LRUCache belongs to the scalability figures
		}
		out = append(out, n)
	}
	return out
}
