// Command benchmark is the simulator's checked-in benchmark. It runs
// one named workload in one process, on one goroutine, for a fixed host
// time budget, checks every run's output, and prints the workload's
// metrics, each with its unit, as one JSON object on the last line of
// standard output:
//
//	go run . -workload swap-large -seed 42            # end-to-end metrics
//	go run . -workload swap-large -seed 42 -trace 1   # per-layer metrics
//
// The traced run (-trace 1) also writes a Chrome trace of the benchmark's
// spans, the CPU profile and the per-layer JSON to -out. README.md
// describes the workloads and metrics; ../BENCHMARK.json lists them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/benchmark/quartiles"
)

func main() {
	// One simulating goroutine on one core: the Go runtime's own work (GC)
	// shares that core rather than a second one, whose availability — and,
	// on SMT hosts, whose interference with the first — varies with the
	// host's other load.
	runtime.GOMAXPROCS(1)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range benchWorkloads() {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 42, "workload input seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure (at least 3 passes; a traced run splits them between untraced and traced passes)")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs traced and reports the per-layer metrics")
	out := fs.String("out", "", "directory for the traced run's artifacts (default .bench_build/trace/<workload>-<seed>)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}

	var res *result
	var detail map[string]any
	var err error
	if *trace == 1 {
		dir := *out
		if dir == "" {
			dir = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d", w.name, *seed))
		}
		res, detail, err = measureTraced(w, *seed, *seconds, dir, stderr)
	} else {
		res, detail, err = measure(w, *seed, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	bw := bufio.NewWriter(stdout)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(detail); err == nil {
		err = enc.Encode(res)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minPasses keeps a median meaningful on workloads whose passes are long.
const minPasses = 3

// runner runs passes of one workload at one seed and checks every run:
// a run fails when it returns an error, when its heap does not verify,
// when its digest differs from the checked-in one for the seed, or when
// it differs from the first pass's.
type runner struct {
	w         workload
	seed      int64
	rec       *recorder
	log       io.Writer
	expected  map[string]uint64 // nil when no digests are checked in for the seed
	first     map[string]uint64
	attempted int
	failed    int
}

func newRunner(w workload, seed int64, log io.Writer) (*runner, error) {
	table, err := loadExpected()
	if err != nil {
		return nil, err
	}
	want, err := table.expectedFor(w.name, seed)
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, rec: newRecorder(), log: log,
		expected: want, first: map[string]uint64{}}, nil
}

// passStats sums one pass's runs. wall is the timed region: machine.New,
// jvm.New and Spec.Run (or smr.Run) of every run.
type passStats struct {
	wall, setup                               float64 // host s
	machineNew, jvmNew, body, collect, verify float64 // host s
	alloc                                     uint64  // Go heap bytes
	peakRSS                                   float64 // MB, the pass's own peak
	sim                                       simTotals
}

func (s *runner) pass() (passStats, error) {
	var ps passStats
	// Every pass starts from a collected Go heap returned to the OS, so it
	// inherits no garbage from the one before and its peak RSS is its own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return ps, err
	}
	p := s.rec.begin("pass")
	for _, d := range s.w.runs {
		r := s.rec.beginRun(d.label())
		var o runOutcome
		if d.bench == "" {
			o = runSMR(s.rec, s.w, d, s.seed)
		} else {
			o = runJVM(s.rec, s.w, d, s.seed)
		}
		s.rec.endRun(r)
		s.check(&o)
		ps.machineNew += o.machineNew
		ps.jvmNew += o.jvmNew
		ps.body += o.body
		ps.collect += o.collect
		ps.verify += o.verify
		ps.alloc += o.alloc
		ps.sim.add(o.sim)
	}
	s.rec.end(p)
	ps.setup = ps.machineNew + ps.jvmNew
	ps.wall = ps.setup + ps.body
	var err error
	ps.peakRSS, err = peakRSSMB()
	return ps, err
}

func (s *runner) check(o *runOutcome) {
	s.attempted++
	if o.err == nil && s.expected != nil {
		if want, ok := s.expected[o.label]; !ok || want != o.digest {
			o.err = fmt.Errorf("digest %s, checked-in %s", hexDigest(o.digest), hexDigest(want))
		}
	}
	if o.err == nil {
		if first, ok := s.first[o.label]; !ok {
			s.first[o.label] = o.digest
		} else if first != o.digest {
			o.err = fmt.Errorf("digest %s differs from the first pass's %s", hexDigest(o.digest), hexDigest(first))
		}
	}
	if o.err != nil {
		s.failed++
		fmt.Fprintf(s.log, "benchmark: %s seed %d run %s failed: %v\n", s.w.name, s.seed, o.label, o.err)
	}
}

// passesFor runs passes until seconds of host time have passed and at
// least min passes ran.
func (s *runner) passesFor(seconds float64, min int) ([]passStats, error) {
	var out []passStats
	start := time.Now()
	for len(out) < min || time.Since(start).Seconds() < seconds {
		ps, err := s.pass()
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}

func (s *runner) result(metrics map[string]metric) *result {
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
}

func (s *runner) digests() map[string]string {
	out := make(map[string]string, len(s.first))
	for label, d := range s.first {
		out[label] = hexDigest(d)
	}
	return out
}

// medianOf is the median of f over the passes.
func medianOf(ps []passStats, f func(passStats) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return quartiles.Median(xs)
}

// endToEnd lists the end-to-end metrics: name, unit and the per-pass value
// whose median is reported.
var endToEnd = []struct {
	name, unit string
	of         func(passStats) float64
}{
	{"pass_s", "s", func(p passStats) float64 { return p.wall }},
	{"setup_s", "s", func(p passStats) float64 { return p.setup }},
	{"alloc_mb", "MB", func(p passStats) float64 { return float64(p.alloc) / 1e6 }},
	{"peak_rss_mb", "MB", func(p passStats) float64 { return p.peakRSS }},
}

// measure is the untraced run: the end-to-end metrics, each the median
// over passes, with their quartiles and every pass's value in the detail
// line.
func measure(w workload, seed int64, seconds float64, log io.Writer) (*result, map[string]any, error) {
	s, err := newRunner(w, seed, log)
	if err != nil {
		return nil, nil, err
	}
	passes, err := s.passesFor(seconds, minPasses)
	if err != nil {
		return nil, nil, err
	}
	metrics := map[string]metric{}
	spread := map[string][3]float64{}
	values := map[string][]float64{}
	for _, m := range endToEnd {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = m.of(p)
		}
		q1, med, q3 := quartiles.Of(xs)
		metrics[m.name] = metric{med, m.unit}
		spread[m.name] = [3]float64{q1, med, q3}
		values[m.name] = xs
	}
	detail := map[string]any{"workload": w.name, "seed": seed, "trace": 0, "passes": len(passes),
		"quartiles": spread, "values": values, "digests": s.digests()}
	return s.result(metrics), detail, nil
}

// measureTraced is the traced run. It spends half the budget on untraced
// passes and half on passes with spans kept and the CPU profiler on, then
// runs the layer probes, and reports the per-layer metrics. It never arms
// the simulator's own tracer (machine.EnableTracing), which forces exact
// charging and would measure a different program; the traced passes'
// digests are checked against the untraced ones like any other pass.
func measureTraced(w workload, seed int64, seconds float64, dir string, log io.Writer) (*result, map[string]any, error) {
	s, err := newRunner(w, seed, log)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	untraced, err := s.passesFor(seconds/2, 1)
	if err != nil {
		return nil, nil, err
	}

	profPath := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, nil, err
	}
	s.rec.on = true
	traced, err := s.passesFor(seconds/2, 1)
	s.rec.on = false
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}

	probes, err := runProbes()
	if err != nil {
		return nil, nil, err
	}
	prof, err := readProfile(profPath)
	if err != nil {
		return nil, nil, err
	}
	metrics := layerMetrics(w, untraced, traced, prof, probes)

	if err := s.rec.writeChrome(filepath.Join(dir, "trace.json")); err != nil {
		return nil, nil, err
	}
	layers := map[string]any{
		"workload": w.name, "seed": seed,
		"passes":             map[string]int{"untraced": len(untraced), "traced": len(traced)},
		"metrics":            metrics,
		"spans":              s.rec.selfTimes(),
		"top_leaf_functions": prof.topLeaves(25),
		"digests":            s.digests(),
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), layers); err != nil {
		return nil, nil, err
	}
	detail := map[string]any{"workload": w.name, "seed": seed, "trace": 1,
		"passes": layers["passes"], "out": dir}
	return s.result(metrics), detail, nil
}

// isCollect matches a collector's Collect method in a profile stack.
func isCollect(fn string) bool {
	return strings.HasPrefix(fn, "repro/internal/gc/") && strings.HasSuffix(fn, ".(*Collector).Collect")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the per-layer metrics of a traced run. Host
// times are medians over the traced passes; simulated counts are one
// pass's (every pass's digest is equal).
func layerMetrics(w workload, untraced, traced []passStats, prof *cpuProfile, probes map[string]metric) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	count := func(name string, v uint64) { put(name, "count", float64(v)) }

	wall := medianOf(traced, func(p passStats) float64 { return p.wall })
	untracedWall := medianOf(untraced, func(p passStats) float64 { return p.wall })
	collect := medianOf(traced, func(p passStats) float64 { return p.collect })
	for _, d := range w.runs {
		if d.bench == "" {
			// smr.Run builds its collectors itself, so no decorator can
			// time them: take Collect's inclusive share of the profile.
			collect = prof.inclusiveShare(isCollect) * wall
			break
		}
	}
	put("machine.new_s", "s", medianOf(traced, func(p passStats) float64 { return p.machineNew }))
	put("jvm.new_s", "s", medianOf(traced, func(p passStats) float64 { return p.jvmNew }))
	put("gc.collect_s", "s", collect)
	put("gc.collect_share", "fraction", ratio(collect, wall))
	put("workloads.mutator_s", "s", medianOf(traced, func(p passStats) float64 { return p.body })-collect)
	put("heap.verify_s", "s", medianOf(traced, func(p passStats) float64 { return p.verify }))
	put("trace_overhead_pct", "%", 100*ratio(wall-untracedWall, untracedWall))
	for layer, share := range prof.leafShares() {
		put(layer+".host_share", "fraction", share)
	}
	for name, v := range probes {
		m[name] = v
	}

	s := traced[0].sim
	p := &s.perf
	put("sim.app_ms", "sim_ms", s.app.Milliseconds())
	put("sim.pause_ms", "sim_ms", s.pause.Milliseconds())
	put("sim.pause_max_ms", "sim_ms", s.pauseMax.Milliseconds())
	put("sim.rate", "sim_ns/ms", ratio(float64(s.app), untracedWall*1e3))
	count("cache.refs", p.CacheRefs)
	put("cache.miss_ratio", "fraction", ratio(float64(p.CacheMisses), float64(p.CacheRefs)))
	count("mmu.tlb_lookups", p.TLBLookups)
	put("mmu.tlb_miss_ratio", "fraction", ratio(float64(p.TLBMisses), float64(p.TLBLookups)))
	count("mmu.pt_walks", p.PTWalks)
	count("mmu.pmd_level_hits", p.PTLevelHits)
	count("mmu.charge_runs", p.ChargeRuns)
	count("mmu.run_words", p.RunWords)
	put("mmu.run_fallback_ratio", "fraction", ratio(float64(p.RunFallbacks), float64(p.ChargeRuns)))
	count("mmu.stream_runs", p.StreamRuns)
	put("mmu.stream_bytes", "bytes", float64(p.StreamBytes))
	put("mmu.pte_lock_wait_ns", "sim_ns", float64(p.PTELockWaitNs))
	count("kernel.swapva_calls", p.SwapVACalls)
	count("kernel.pages_swapped", p.PagesSwapped)
	put("kernel.memmove_bytes", "bytes", float64(p.BytesCopied))
	swapped := float64(p.PagesSwapped) * 4096
	put("kernel.swap_byte_share", "fraction", ratio(swapped, swapped+float64(p.BytesCopied)))
	count("machine.ipis", p.IPIsSent)
	count("machine.shootdowns", s.shootdowns)
	count("gc.full", uint64(s.full))
	count("gc.minor", uint64(s.minor))
	put("gc.mark_ms", "sim_ms", s.phases.Mark.Milliseconds())
	put("gc.forward_ms", "sim_ms", s.phases.Forward.Milliseconds())
	put("gc.adjust_ms", "sim_ms", s.phases.Adjust.Milliseconds())
	put("gc.compact_ms", "sim_ms", s.phases.Compact.Milliseconds())
	count("swaptier.out_pages", s.tierOut)
	count("swaptier.in_pages", s.tierIn)
	count("swaptier.zero_fill_pages", p.ZeroFillPages)
	count("swaptier.reclaim_runs", p.ReclaimRuns)
	count("swaptier.direct_reclaims", p.DirectReclaims)
	count("sched.waits", s.arbiterWaits)
	put("sched.wait_ms", "sim_ms", s.arbiterWait.Milliseconds())
	count("smr.failovers", uint64(s.failovers))
	count("smr.evictions", uint64(s.evictions))
	count("smr.replayed", uint64(s.replayed))
	put("smr.commit_p99_ms", "sim_ms", s.commitP99.Milliseconds())
	return m
}

// resetPeakRSS resets the process's peak resident set (VmHWM) to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
