package soak

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/jvm"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

// TestSoakSVAGC runs a short soak under the paper's collector: at least
// one checked cycle, every invariant holding, and both pressure paths
// (emergency GC and fail-fast) exercised each cycle.
func TestSoakSVAGC(t *testing.T) {
	res, err := Run(Config{
		Collector: jvm.CollectorSVAGC,
		Duration:  200 * time.Millisecond,
		Watchdog:  10 * sim.Second,
	})
	if err != nil {
		t.Fatalf("soak failed: %v (after %+v)", err, res)
	}
	if res.Cycles < 2 {
		t.Fatalf("ran %d cycles, want >= 2 (warm-up plus checked)", res.Cycles)
	}
	if res.FailFasts < uint64(res.Cycles) {
		t.Errorf("fail-fasts %d < cycles %d; every cycle must hit the min watermark", res.FailFasts, res.Cycles)
	}
	if res.Emergency == 0 || res.Stalls == 0 {
		t.Errorf("no emergency collections (%d) or stalls (%d) recorded", res.Emergency, res.Stalls)
	}
	if res.Collections == 0 || res.SimTime <= 0 {
		t.Errorf("empty soak: %+v", res)
	}
}

// TestSoakCopyGC soaks the evacuating baseline: pressure episodes drive it
// through the degrade-to-slide path, and the same leak invariants hold.
func TestSoakCopyGC(t *testing.T) {
	res, err := Run(Config{
		Collector: jvm.CollectorCopy,
		Duration:  200 * time.Millisecond,
		Watchdog:  10 * sim.Second,
	})
	if err != nil {
		t.Fatalf("soak failed: %v (after %+v)", err, res)
	}
	if res.Cycles < 2 {
		t.Fatalf("ran %d cycles, want >= 2", res.Cycles)
	}
	if res.Degraded == 0 {
		t.Error("copygc soak never degraded despite min-watermark episodes")
	}
}

// TestSoakSwapTier arms the far-memory plane: every cycle forces a
// swap-out/fault-in episode with bit-exact data round trips, allocation
// keeps working under reclaim pressure (no fail-fasts), and the tier
// leak invariants hold — zero slots after each closing full GC, frames
// exactly matching the present PTEs. The tiny zpool forces spill to the
// simulated far device, so both tiers see traffic.
func TestSoakSwapTier(t *testing.T) {
	res, err := Run(Config{
		Collector: jvm.CollectorSVAGC,
		Duration:  200 * time.Millisecond,
		Watchdog:  10 * sim.Second,
		Swap:      swaptier.Config{ZpoolBytes: 4 << 10, FarBytes: 64 << 20},
	})
	if err != nil {
		t.Fatalf("swap soak failed: %v (after %+v)", err, res)
	}
	if res.Cycles < 2 {
		t.Fatalf("ran %d cycles, want >= 2", res.Cycles)
	}
	if res.SwapOuts == 0 || res.SwapIns == 0 {
		t.Errorf("swap soak moved no pages: %+v", res)
	}
	if res.FailFasts != 0 {
		t.Errorf("%d fail-fasts with a swap tier behind the pool (reclaim must keep allocation working)", res.FailFasts)
	}
}

// TestResultString: the one-line summary the soak CLI prints names every
// counter, and adds the swap traffic only when pages moved.
func TestResultString(t *testing.T) {
	r := Result{Cycles: 3, Collections: 9, Degraded: 1, Stalls: 4, Emergency: 2,
		FailFasts: 3, Baseline: 120, SimTime: 1500 * sim.Microsecond}
	const want = "3 cycles, 9 collections (1 degraded moves), 4 stalls, 2 emergency GCs, 3 fail-fasts, baseline 120 frames, 1.500ms simulated"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	r.SwapOuts, r.SwapIns = 70, 12
	if got := r.String(); got != want+", 70 swap-outs / 12 swap-ins" {
		t.Errorf("with swap traffic: String() = %q", got)
	}
}

func TestSoakRejectsUnknownCollector(t *testing.T) {
	if _, err := Run(Config{Collector: "zgc", Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown collector accepted")
	}
}

// TestSoakMultiTenant runs the capped-tenant soak: several tenant JVMs
// churning in turn on one machine, per-tenant charge baselines flat every
// cycle, and the over-cap isolation probe refused with the structured
// cap error while neighbours keep allocating.
func TestSoakMultiTenant(t *testing.T) {
	res, err := Run(Config{
		Collector: jvm.CollectorSVAGC,
		Duration:  200 * time.Millisecond,
		Tenants:   3,
	})
	if err != nil {
		t.Fatalf("multi-tenant soak failed: %v (after %+v)", err, res)
	}
	if res.Cycles < 2 {
		t.Fatalf("ran %d cycles, want >= 2 (warm-up plus checked)", res.Cycles)
	}
	if res.FailFasts < uint64(res.Cycles-1) {
		t.Errorf("cap refusals %d < checked cycles %d; every cycle probes the cap", res.FailFasts, res.Cycles-1)
	}
	if res.Collections < 3*res.Cycles {
		t.Errorf("collections %d < %d; every tenant collects every cycle", res.Collections, 3*res.Cycles)
	}
}

// TestSoakMultiTenantCopyGC runs the same soak under the copying
// collector, whose to-space mapping churns the cap accounting hardest.
func TestSoakMultiTenantCopyGC(t *testing.T) {
	res, err := Run(Config{
		Collector: jvm.CollectorCopy,
		Duration:  200 * time.Millisecond,
		Tenants:   2,
	})
	if err != nil {
		t.Fatalf("multi-tenant soak failed: %v (after %+v)", err, res)
	}
}

// TestSoakMultiTenantReplaysBySeed: the tenants churn on one goroutine, so
// two same-seed soaks return identical results, simulated time included.
func TestSoakMultiTenantReplaysBySeed(t *testing.T) {
	cfg := Config{Tenants: 3, Duration: time.Nanosecond, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed soaks diverged:\n%+v\n%+v", a, b)
	}
}
