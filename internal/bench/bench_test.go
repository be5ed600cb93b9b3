package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRegistryCoversEveryArtifact(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig6", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"table1", "table2", "table3", "ext1", "ext2", "ext3",
		"numa1", "oom1", "oversub1", "smr1",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil || e.ID != "fig10" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{
		ID:     "figX",
		Title:  "Test",
		Paper:  "expectation",
		Header: []string{"a", "bbb"},
		Rows:   [][]string{{"11", "2"}, {"1", "222222"}},
		Notes:  []string{"a note"},
	}
	out := r.Format()
	for _, want := range []string{"figX", "expectation", "bbb", "222222", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: every row has the same prefix width for column 2.
	lines := strings.Split(out, "\n")
	idx := -1
	for _, l := range lines {
		if strings.HasPrefix(l, "a ") {
			idx = strings.Index(l, "bbb")
		}
	}
	if idx < 0 {
		t.Fatalf("header line not found:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.cost().Name != "XeonGold6130" {
		t.Errorf("default cost %q", o.cost().Name)
	}
	if o.workers() != 4 || o.seed() != 42 {
		t.Errorf("defaults: workers=%d seed=%d", o.workers(), o.seed())
	}
	o2 := Options{Cost: sim.CoreI5_7600(), GCWorkers: 2, Seed: 7}
	if o2.cost().Name != "CoreI5-7600" || o2.workers() != 2 || o2.seed() != 7 {
		t.Error("overrides ignored")
	}
}

func TestRunWorkloadCaches(t *testing.T) {
	ResetCache()
	opt := Options{Quick: true}
	r1, err := runWorkload(opt, runSpec{"svagc", "CryptoAES", 1.2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cachedRuns()); n != 1 {
		t.Fatalf("cache has %d entries", n)
	}
	r2, err := runWorkload(opt, runSpec{"svagc", "CryptoAES", 1.2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second run not served from cache")
	}
	if _, err := runWorkload(opt, runSpec{"svagc", "CryptoAES", 2.0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(cachedRuns()) != 2 {
		t.Error("distinct factor not cached separately")
	}
	if _, err := runWorkload(opt, runSpec{"zgc", "CryptoAES", 1.2, 1}); err == nil {
		t.Error("unknown collector accepted")
	}
	if _, err := runWorkload(opt, runSpec{"svagc", "nope", 1.2, 1}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	ResetCache()
}

func TestBenchListQuickVsFull(t *testing.T) {
	quick := benchList(Options{Quick: true})
	full := benchList(Options{})
	if len(quick) >= len(full) {
		t.Errorf("quick list (%d) not smaller than full (%d)", len(quick), len(full))
	}
	for _, n := range full {
		if n == "LRUCache" {
			t.Error("LRUCache belongs to the scalability figures only")
		}
	}
}

// Every experiment must complete in Quick mode and produce a well-formed
// table.
func TestAllExperimentsRunQuick(t *testing.T) {
	s := sharedSweep(t)
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			res := s.result(t, id)
			if res.ID != id {
				t.Errorf("result ID %q", res.ID)
			}
			if len(res.Rows) == 0 {
				t.Error("no rows")
			}
			if len(res.Header) == 0 {
				t.Error("no header")
			}
			for i, row := range res.Rows {
				if len(row) != len(res.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(res.Header))
				}
			}
		})
	}
}

// The headline shapes the reproduction must preserve, read from the quick
// sweep's memoised runs.
func TestHeadlineShapes(t *testing.T) {
	s := sharedSweep(t)

	t.Run("fig11-sigverify-wins-big", func(t *testing.T) {
		base := s.run(t, "svagc-memmove", "Sigverify", 1.2, 1)
		sva := s.run(t, "svagc", "Sigverify", 1.2, 1)
		if ratio := float64(base.GCTotal) / float64(sva.GCTotal); ratio < 2 {
			t.Errorf("Sigverify GC speedup %.2fx, want > 2x", ratio)
		}
	})

	t.Run("fig12-ordering", func(t *testing.T) {
		shen := s.run(t, "shenandoah", "Sigverify", 1.2, 1)
		sva := s.run(t, "svagc", "Sigverify", 1.2, 1)
		if !(sva.GCAvgFull < shen.GCAvgFull) {
			t.Errorf("SVAGC avg full %v not below Shenandoah %v", sva.GCAvgFull, shen.GCAvgFull)
		}
	})

	t.Run("fig14-gc-scales-better-than-app", func(t *testing.T) {
		one := s.run(t, "svagc", "LRUCache", 1.2, 1)
		many := s.run(t, "svagc", "LRUCache", 1.2, 8)
		gcGrowth := float64(many.GCTotal) / float64(one.GCTotal)
		appGrowth := float64(many.AppTime) / float64(one.AppTime)
		if gcGrowth >= appGrowth {
			t.Errorf("GC grew %.2fx, app %.2fx; SVAGC's GC must scale better", gcGrowth, appGrowth)
		}
	})

	t.Run("fig10-break-even-is-threshold", func(t *testing.T) {
		res := s.result(t, "fig10")
		found := false
		for _, n := range res.Notes {
			if strings.Contains(n, "XeonGold6130 break-even: "+strconv.Itoa(10)) {
				found = true
			}
		}
		if !found {
			t.Errorf("Gold 6130 break-even note missing or not 10 pages: %v", res.Notes)
		}
	})

	t.Run("table3-swapva-reduces-misses", func(t *testing.T) {
		base := s.run(t, "svagc-memmove", "Sigverify", 1.2, 1)
		sva := s.run(t, "svagc", "Sigverify", 1.2, 1)
		// Cache pollution reliably improves (Table III's first half); the
		// DTLB direction is equivocal at laptop scale, where the ASID-wide
		// flushes SwapVA needs weigh more than the translation traffic the
		// byte copies would cause — see EXPERIMENTS.md.
		if sva.Perf.CacheMissPct() >= base.Perf.CacheMissPct() {
			t.Errorf("cache miss %.2f%% (swapva) not below %.2f%% (memmove)",
				sva.Perf.CacheMissPct(), base.Perf.CacheMissPct())
		}
		t.Logf("dtlb miss: memmove %.2f%%, swapva %.2f%%",
			base.Perf.DTLBMissPct(), sva.Perf.DTLBMissPct())
	})
}
