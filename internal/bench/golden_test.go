package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure and run outputs")

// quickOpt is the one quick sweep every check in this package reads:
// gcbench -exp all -quick's options, with Parallel fixed at 4 so the
// host-concurrent path (experiments side by side, each figure's runs
// requested at once, the run cache's singleflight slots) is exercised on
// any host.
var quickOpt = Options{Quick: true, GCWorkers: 4, Seed: 42, Parallel: 4}

// quickCells are the machines the quick sweep builds outside the run
// cache, by experiment: each is one hold, so HarnessStats counts it next
// to the memoised runs.
var quickCells = map[string]int{
	"fig6":     2, // 2 pages/req points
	"fig8":     2, // 2 sizes
	"fig9":     4, // 2 core counts × unoptimised/pinned
	"fig10":    2, // one threshold sweep per machine model
	"ext3":     2, // 2 sizes
	"numa1":    4, // 2 core counts × 1/2 sockets
	"oom1":     6, // 3 occupancies × 2 collectors
	"oversub1": 6, // 2 ratios × 3 collectors
	"smr1":     6, // 2 heaps × 3 collectors
}

// quickSweep is what the sweep left behind: every experiment's result or
// error by ID, every memoised run by cache key, and the dedup check's
// verdict ("" when every distinct run executed exactly once and every
// other machine HarnessStats counted is one of quickCells).
type quickSweep struct {
	results map[string]*Result
	errs    map[string]error
	runs    map[string]*runResult
	dedup   string
}

var (
	sweepOnce sync.Once
	sweep     quickSweep
)

// sharedSweep runs the quick sweep of every registered experiment once
// per test process and returns it. The memoised runs are snapshotted
// inside the Once, so a later ResetCache cannot drop them.
func sharedSweep(t *testing.T) *quickSweep {
	t.Helper()
	if testing.Short() {
		t.Skip("reads the quick sweep of every experiment")
	}
	sweepOnce.Do(func() {
		ResetCache()
		before, _ := HarnessStats()
		sweep.results = map[string]*Result{}
		sweep.errs = map[string]error{}
		exps := Registry()
		RunExperiments(quickOpt, exps, func(i int, res *Result, err error, _ float64) {
			sweep.results[exps[i].ID], sweep.errs[exps[i].ID] = res, err
		})
		after, _ := HarnessStats()
		sweep.runs = cachedRuns()
		cells := 0
		for _, n := range quickCells {
			cells += n
		}
		if executed := after - before; executed != uint64(len(sweep.runs)+cells) {
			sweep.dedup = fmt.Sprintf("%d machine runs for %d distinct workload runs and %d figure cells: "+
				"singleflight dedup failed or a cell went uncounted", executed, len(sweep.runs), cells)
		}
	})
	return &sweep
}

// result returns experiment id's result from the sweep, failing the test
// if the experiment errored.
func (s *quickSweep) result(t *testing.T, id string) *Result {
	t.Helper()
	if err := s.errs[id]; err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	res, ok := s.results[id]
	if !ok {
		t.Fatalf("%s is not in the registry", id)
	}
	return res
}

// run returns one memoised run of the sweep, failing the test if no
// figure performed it.
func (s *quickSweep) run(t *testing.T, collector, bench string, factor float64, jvms int) *runResult {
	t.Helper()
	key := cacheKey(quickOpt, collector, bench, factor, jvms)
	r, ok := s.runs[key]
	if !ok {
		t.Fatalf("run %q is not part of the quick sweep", key)
	}
	return r
}

// cachedRuns snapshots the successful memoised runs by cache key.
func cachedRuns() map[string]*runResult {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	out := make(map[string]*runResult, len(runCache))
	for key, call := range runCache {
		if call.r != nil {
			out[key] = call.r
		}
	}
	return out
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update. A diff means a cost-model or code-path change reached the
// paper's figures; regenerate with
// `go test ./internal/bench -run TestGolden -update` and justify the delta.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden file %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenQuickFigures pins every experiment's quick output to the byte.
// Concatenated in registry order with a blank line after each, the
// goldens are exactly `gcbench -exp all -quick` stdout.
func TestGoldenQuickFigures(t *testing.T) {
	s := sharedSweep(t)
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id+".quick.golden", s.result(t, id).Format())
		})
	}
}

// TestGoldenQuickRuns pins every memoised run of the sweep, one line per
// cache key with every sim.Perf counter. Counters the figures never print
// (TLB misses outside table3, say) are pinned too, so one that varied with
// host scheduling or worker count would show here.
func TestGoldenQuickRuns(t *testing.T) {
	s := sharedSweep(t)
	if s.dedup != "" {
		t.Error(s.dedup)
	}
	checkGolden(t, "runs.quick.golden", formatRuns(s.runs))
}

// TestGoldenFaultedFig11 pins the fault-injected fig11 sweep byte for
// byte: `gcbench -exp fig11 -quick -sockets 2 -fault-plan all=0.05
// -fault-seed 7` stdout. The plan fires the pte-lock, ipi-ack, swapva and
// poison sites, so a changed fault or recovery-ladder charge fails here.
func TestGoldenFaultedFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault-injected fig11 sweep")
	}
	defer ResetCache()
	opt := Options{Quick: true, GCWorkers: 4, Seed: 42, Parallel: 2, Sockets: 2,
		FaultPlan: "all=0.05", FaultSeed: 7}
	exps := []*Experiment{{ID: "fig11", Run: Fig11SwapVAGain}}
	RunExperiments(opt, exps, func(_ int, res *Result, err error, _ float64) {
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "fig11.faults.golden", res.Format()+"\n")
	})
}

// formatRuns renders runs sorted by cache key, each followed by its named
// sim.Perf counters.
func formatRuns(runs map[string]*runResult) string {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		v := reflect.ValueOf(runs[k].Perf)
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name != "_" {
				fmt.Fprintf(&b, " %s=%d", name, v.Field(i).Uint())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
