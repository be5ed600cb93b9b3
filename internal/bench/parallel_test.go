package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	excludedFields = []string{"Quick", "Parallel", "Swap", "traces"}
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
	// swap-armed (oversub1 builds its machines directly): the tier shape
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

// TestConcurrentFiguresShareCache prefetches the same runs from two
// goroutines at once, each fanning out over its own worker pool — the
// -race exercise for the singleflight slots, and for machines staying
// private to the goroutine that runs them. Every shared run must execute
// once, not once per caller.
func TestConcurrentFiguresShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	ResetCache()
	defer ResetCache()
	before, _ := HarnessStats()
	opt := Options{Quick: true, Parallel: 4}
	var specs []runSpec
	for _, bench := range []string{"CryptoAES", "Sigverify"} {
		for _, c := range []string{"svagc", "svagc-memmove"} {
			specs = append(specs, runSpec{c, bench, 1.2, 1})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefetch(opt, specs)
		}()
	}
	wg.Wait()
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
