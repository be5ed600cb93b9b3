package bench

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

// keyFields are the Options fields cacheKey serialises; excludedFields are
// the ones it deliberately leaves out (with the reason documented on
// cacheKey). Every Options field must appear in exactly one list — adding
// a field without classifying it here fails the test, which is the
// checklist cacheKey's comment promises.
var (
	keyFields = []string{"Cost", "GCWorkers", "Seed", "Sockets", "NUMAPolicy", "NUMABind",
		"FaultPlan", "FaultRate", "FaultSeed", "Trace"}
	excludedFields = []string{"Quick", "Parallel", "Swap", "traces", "slots"}
)

func TestCacheKeyCoversOptions(t *testing.T) {
	classified := map[string]bool{}
	for _, f := range keyFields {
		classified[f] = true
	}
	for _, f := range excludedFields {
		if classified[f] {
			t.Fatalf("field %s listed as both serialised and excluded", f)
		}
		classified[f] = true
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !classified[name] {
			t.Errorf("Options.%s is not classified in cacheKey's checklist: "+
				"decide whether it changes run results (serialise it in cacheKey) "+
				"or not (add it to excludedFields with a comment)", name)
		}
		delete(classified, name)
	}
	for name := range classified {
		t.Errorf("checklist names %s, but Options has no such field", name)
	}

	// Every serialised dimension, plus the run coordinates, must produce a
	// distinct key when varied alone.
	base := Options{}
	variants := []struct {
		name string
		key  string
	}{
		{"base", cacheKey(base, "svagc", "CryptoAES", 1.2, 1)},
		{"collector", cacheKey(base, "svagc-memmove", "CryptoAES", 1.2, 1)},
		{"bench", cacheKey(base, "svagc", "Sigverify", 1.2, 1)},
		{"factor", cacheKey(base, "svagc", "CryptoAES", 2.0, 1)},
		{"jvms", cacheKey(base, "svagc", "CryptoAES", 1.2, 8)},
		{"Cost", cacheKey(Options{Cost: sim.CoreI5_7600()}, "svagc", "CryptoAES", 1.2, 1)},
		{"GCWorkers", cacheKey(Options{GCWorkers: 8}, "svagc", "CryptoAES", 1.2, 1)},
		{"Seed", cacheKey(Options{Seed: 7}, "svagc", "CryptoAES", 1.2, 1)},
		{"Sockets", cacheKey(Options{Sockets: 2}, "svagc", "CryptoAES", 1.2, 1)},
		{"NUMAPolicy", cacheKey(Options{NUMAPolicy: topology.PolicyInterleave}, "svagc", "CryptoAES", 1.2, 1)},
		{"NUMABind", cacheKey(Options{NUMAPolicy: topology.PolicyBind, NUMABind: 1}, "svagc", "CryptoAES", 1.2, 1)},
		{"FaultPlan", cacheKey(Options{FaultPlan: "swapva=0.1"}, "svagc", "CryptoAES", 1.2, 1)},
		{"FaultRate", cacheKey(Options{FaultRate: 0.01}, "svagc", "CryptoAES", 1.2, 1)},
		{"FaultSeed", cacheKey(Options{FaultSeed: 9}, "svagc", "CryptoAES", 1.2, 1)},
		{"Trace", cacheKey(Options{Trace: true}, "svagc", "CryptoAES", 1.2, 1)},
	}
	seen := map[string]string{}
	for _, v := range variants {
		if prev, dup := seen[v.key]; dup {
			t.Errorf("varying %s collides with %s: key %q", v.name, prev, v.key)
		}
		seen[v.key] = v.name
	}

	// Factors that differ beyond three decimals must not collide — the
	// %.3f formatting this replaced served one factor's cached result for
	// the other.
	a := cacheKey(base, "svagc", "CryptoAES", 1.2001, 1)
	b := cacheKey(base, "svagc", "CryptoAES", 1.2004, 1)
	if a == b {
		t.Errorf("factors 1.2001 and 1.2004 share cache key %q", a)
	}

	// Excluded-by-design fields must NOT change the key: a parallel run
	// and a serial run share the same memoised results.
	if k := cacheKey(Options{Parallel: 8}, "svagc", "CryptoAES", 1.2, 1); k != variants[0].key {
		t.Errorf("Parallel changed the cache key: %q vs %q", k, variants[0].key)
	}
	if k := cacheKey(Options{Quick: true}, "svagc", "CryptoAES", 1.2, 1); k != variants[0].key {
		t.Errorf("Quick changed the cache key: %q vs %q", k, variants[0].key)
	}
	// Swap is excluded because no run that reaches the cache is ever
	// swap-armed (oversub1 never passes through it): the tier shape
	// must not perturb the key.
	swapped := Options{Swap: swaptier.Config{FarBytes: 64 << 20, ZpoolBytes: 8 << 20,
		FarLatNs: 25_000}}
	if k := cacheKey(swapped, "svagc", "CryptoAES", 1.2, 1); k != variants[0].key {
		t.Errorf("Swap changed the cache key: %q vs %q", k, variants[0].key)
	}

	// FaultRate gets the same exact-serialisation guarantee as factor:
	// rates that differ beyond fixed-precision formatting must not share
	// a key, or one rate's cached result would stand in for the other's.
	ra := cacheKey(Options{FaultRate: 0.0101}, "svagc", "CryptoAES", 1.2, 1)
	rb := cacheKey(Options{FaultRate: 0.0104}, "svagc", "CryptoAES", 1.2, 1)
	if ra == rb {
		t.Errorf("fault rates 0.0101 and 0.0104 share cache key %q", ra)
	}
}

// TestConcurrentFiguresShareCache requests the same runs from two
// goroutines at once, sharing one set of machine slots — the -race
// exercise for the singleflight slots, and for machines staying private
// to the goroutine that runs them. Every shared run must execute once,
// not once per caller, and both callers must get the same results.
func TestConcurrentFiguresShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	ResetCache()
	defer ResetCache()
	before, _ := HarnessStats()
	opt := Options{Quick: true, Parallel: 4}.sweep()
	var specs []runSpec
	for _, bench := range []string{"CryptoAES", "Sigverify"} {
		for _, c := range []string{"svagc", "svagc-memmove"} {
			specs = append(specs, runSpec{c, bench, 1.2, 1})
		}
	}
	var got [2]map[runSpec]*runResult
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs, err := runAll(opt, specs)
			if err != nil {
				t.Error(err)
			}
			got[g] = runs
		}()
	}
	wg.Wait()
	if !maps.Equal(got[0], got[1]) {
		t.Error("the two requests got different results for the same specs")
	}
	after, _ := HarnessStats()
	executed, cached := after-before, uint64(len(cachedRuns()))
	if cached != uint64(len(specs)) {
		t.Errorf("%d runs memoised, want %d", cached, len(specs))
	}
	if executed != cached {
		t.Errorf("%d workload executions for %d distinct runs: singleflight dedup failed",
			executed, cached)
	}
}

// TestRunAllFirstErrorInSpecOrder requests two failing runs: however the
// goroutines are scheduled, the error returned is the first spec's.
func TestRunAllFirstErrorInSpecOrder(t *testing.T) {
	defer ResetCache()
	specs := []runSpec{{"svagc", "nope", 1.2, 1}, {"zgc", "CryptoAES", 1.2, 1}}
	for i := 0; i < 20; i++ {
		ResetCache()
		runs, err := runAll(Options{Quick: true, Parallel: 2}, specs)
		if err == nil || !strings.Contains(err.Error(), `"nope"`) {
			t.Fatalf("request %d: got %v, %v; want the unknown-benchmark error of the first spec", i, runs, err)
		}
	}
}

// TestOneMachineBound sweeps cheap mixed figures — fig1 and fig2 request
// workload runs side by side, oom1 builds its machines outside the run
// cache — and checks that the sweep's machine slots are the whole bound:
// at Parallel 1 exactly one machine is ever in flight, at Parallel 3 at
// most three (and, with five runs ready at once, exactly three). Every
// machine is counted in HarnessStats: fig1's two runs, fig2's two
// distinct runs and oom1's six cells.
func TestOneMachineBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	defer ResetCache()
	var exps []*Experiment
	for _, id := range []string{"fig1", "fig2", "oom1"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	for _, parallel := range []int{1, 3} {
		ResetCache()
		before, _ := HarnessStats()
		opt := Options{Quick: true, Parallel: parallel}.sweep()
		RunExperiments(opt, exps, func(i int, _ *Result, err error, _ float64) {
			if err != nil {
				t.Fatalf("parallel=%d: %s: %v", parallel, exps[i].ID, err)
			}
		})
		after, _ := HarnessStats()
		if peak := opt.slots.peak.Load(); peak != int64(parallel) {
			t.Errorf("parallel=%d: %d machines in flight at most, want %d", parallel, peak, parallel)
		}
		if held := len(opt.slots.free); held != 0 {
			t.Errorf("parallel=%d: %d slots still held after the sweep", parallel, held)
		}
		if runs := after - before; runs != 10 {
			t.Errorf("parallel=%d: HarnessStats counted %d machine runs, want 10", parallel, runs)
		}
	}
}

// TestTracedSweepAnyWidth runs a traced sweep of fig14 listed twice, at
// Parallel 1 and then, from an empty cache, at Parallel 4. Tracing must
// not change how runs execute: the merged trace is byte-equal across the
// two widths, the second fig14 lists the first's tracers again (its runs
// are cache hits), and both results equal the untraced golden. Under
// -race it also checks that traced machines running side by side share
// no state.
func TestTracedSweepAnyWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	defer ResetCache()
	want, err := os.ReadFile(filepath.Join("testdata", "fig14.quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fig14, err := ByID("fig14")
	if err != nil {
		t.Fatal(err)
	}
	exps := []*Experiment{fig14, fig14}
	var digests []string
	for _, parallel := range []int{1, 4} {
		ResetCache()
		opt := quickOpt
		opt.Parallel, opt.Trace = parallel, true
		var traces []*trace.Tracer
		results := make([]*Result, len(exps))
		RunExperiments(opt, exps, func(i int, res *Result, err error, _ float64) {
			if err != nil {
				t.Fatalf("parallel=%d: %v", parallel, err)
			}
			results[i] = res
			traces = append(traces, res.Traces...)
		})
		for i, res := range results {
			if got := res.Format(); got != string(want) {
				t.Errorf("parallel=%d: traced fig14 #%d differs from the untraced golden:\n%s", parallel, i, got)
			}
		}
		if len(results[0].Traces) == 0 {
			t.Fatalf("parallel=%d: traced fig14 lists no tracers", parallel)
		}
		if !slices.Equal(results[0].Traces, results[1].Traces) {
			t.Errorf("parallel=%d: the second fig14 lists %d tracers, not the first's %d",
				parallel, len(results[1].Traces), len(results[0].Traces))
		}
		h := sha256.New()
		if err := trace.ChromeTraceOf(traces...).Write(h); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, fmt.Sprintf("%x", h.Sum(nil)))
	}
	if digests[0] != digests[1] {
		t.Errorf("merged trace differs across widths: parallel=1 sha256 %s, parallel=4 sha256 %s",
			digests[0], digests[1])
	}
}
