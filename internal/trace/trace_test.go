package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestKindStringsAndCategories(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; k < numKinds; k++ {
		name := Kind(k).String()
		if name == "unknown" || seen[name] {
			t.Errorf("kind %d: bad or duplicate name %q", k, name)
		}
		seen[name] = true
		if Kind(k).Category() == "other" {
			t.Errorf("kind %d (%s): uncategorised", k, name)
		}
	}
	if Kind(200).String() != "unknown" || Kind(200).Category() != "other" {
		t.Error("out-of-range kind must map to unknown/other")
	}
}

func TestMergeOrdersByClock(t *testing.T) {
	// Buffers receive deliberately interleaved timestamps; the merge must
	// come out ordered by TS with ties broken by TID.
	cases := []struct {
		name string
		ts   [][]sim.Time // per-buffer emission timestamps
	}{
		{"disjoint", [][]sim.Time{{10, 20, 30}, {40, 50}}},
		{"interleaved", [][]sim.Time{{10, 30, 50}, {20, 40, 60}}},
		{"reversed buffers", [][]sim.Time{{100, 200}, {1, 2, 3}}},
		{"ties across buffers", [][]sim.Time{{5, 5, 7}, {5, 6, 7}}},
		{"single buffer", [][]sim.Time{{3, 1, 2}}}, // unordered within a buffer
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(16)
			total := 0
			for core, series := range tc.ts {
				b := tr.NewBuffer(core, &sim.Perf{})
				for _, ts := range series {
					b.Emit(KindSyscall, "ev", ts, 1, 0, 0)
					total++
				}
			}
			got := tr.Merge()
			if len(got) != total {
				t.Fatalf("merged %d events, want %d", len(got), total)
			}
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if a.TS > b.TS || (a.TS == b.TS && a.TID > b.TID) {
					t.Fatalf("event %d out of order: (%v,tid%d) before (%v,tid%d)",
						i, a.TS, a.TID, b.TS, b.TID)
				}
			}
		})
	}
}

func TestDisabledEmitDoesNotAllocate(t *testing.T) {
	var b *Buffer // the disabled tracer: a nil buffer on the context
	if b.Enabled() {
		t.Fatal("nil buffer reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(KindSwapPage, "pte-swap", 10, 5, 1, 2)
	})
	if allocs != 0 {
		t.Errorf("disabled Emit allocates %v per call, want 0", allocs)
	}
}

func TestSteadyStateEmitDoesNotAllocate(t *testing.T) {
	// Once the ring is at capacity, emission overwrites in place: no
	// allocation even while tracing is live.
	tr := New(64)
	b := tr.NewBuffer(0, &sim.Perf{})
	for i := 0; i < 64; i++ {
		b.Emit(KindSwapPage, "pte-swap", sim.Time(i), 1, 0, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(KindSwapPage, "pte-swap", 100, 5, 1, 2)
	})
	if allocs != 0 {
		t.Errorf("steady-state Emit allocates %v per call, want 0", allocs)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	tr := New(4)
	b := tr.NewBuffer(0, &sim.Perf{})
	for i := 0; i < 10; i++ {
		b.Emit(KindBus, "ev", sim.Time(i), 1, uint64(i), 0)
	}
	evs := tr.Merge()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Arg1 != want {
			t.Errorf("slot %d holds event %d, want %d (oldest must go first)", i, ev.Arg1, want)
		}
	}
	s := SnapshotOf(tr)
	if s.Emitted != 10 || s.Dropped != 6 {
		t.Errorf("emitted/dropped = %d/%d, want 10/6", s.Emitted, s.Dropped)
	}
	// Metrics keep counting past the ring: all 10 bus events are observed.
	if s.EventsByKind["bus"] != 10 {
		t.Errorf("bus count = %d, want 10 (metrics must survive ring overwrite)", s.EventsByKind["bus"])
	}
}

func TestChromeJSONRoundTrips(t *testing.T) {
	tr := New(16)
	b0 := tr.NewBuffer(0, &sim.Perf{})
	b1 := tr.NewBuffer(3, &sim.Perf{})
	b0.Emit(KindSyscall, "SwapVA", 1000, 500, 16, 0)
	b0.Emit(KindShootdown, "tlb-shootdown", 1500, 200, 15, 7)
	b1.Emit(KindPhase, "compact", 1200, 800, 4, 0)

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if len(got.TraceEvents) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(got.TraceEvents))
	}
	byName := map[string]ChromeEvent{}
	for _, ev := range got.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("%s: ph = %q, want complete event \"X\"", ev.Name, ev.Ph)
		}
		byName[ev.Name] = ev
	}
	sc, ok := byName["SwapVA"]
	if !ok {
		t.Fatal("SwapVA event missing")
	}
	// Simulated ns become Chrome microseconds.
	if sc.TS != 1.0 || sc.Dur != 0.5 {
		t.Errorf("SwapVA ts/dur = %v/%v µs, want 1/0.5", sc.TS, sc.Dur)
	}
	if sc.Cat != "kernel" || byName["tlb-shootdown"].Cat != "tlb" || byName["compact"].Cat != "gc" {
		t.Error("categories wrong after round trip")
	}
	if byName["compact"].TID == sc.TID {
		t.Error("events from different contexts share a tid")
	}
	if sc.Args == nil || sc.Args.Arg1 != 16 {
		t.Errorf("SwapVA args = %+v, want Arg1=16", sc.Args)
	}
}

func TestChromeTraceOfSeparatesMachines(t *testing.T) {
	t1, t2 := New(8), New(8)
	t1.NewBuffer(0, &sim.Perf{}).Emit(KindSyscall, "a", 1, 1, 0, 0)
	t2.NewBuffer(0, &sim.Perf{}).Emit(KindSyscall, "b", 2, 1, 0, 0)
	ct := ChromeTraceOf(t1, t2)
	pids := map[string]int{}
	for _, ev := range ct.TraceEvents {
		pids[ev.Name] = ev.PID
	}
	if pids["a"] == pids["b"] {
		t.Errorf("two machines share pid %d", pids["a"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023, 1024, math.MaxUint64} {
		h.observe(v)
	}
	wantBucket := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1, histBuckets - 1: 1}
	for b, want := range wantBucket {
		if h.counts[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, h.counts[b], want)
		}
	}
	if h.n != 8 {
		t.Errorf("n = %d, want 8", h.n)
	}
}

// TestSnapshotMetricsAndPrometheus checks the two sources a snapshot
// reads: histograms and kind counts from the events, every count series
// from the buffers' sim.Perf.
func TestSnapshotMetricsAndPrometheus(t *testing.T) {
	tr := New(32)
	b := tr.NewBuffer(0, &sim.Perf{IPIsSent: 30, BytesCopied: 4096})
	b.Emit(KindSwapReq, "swap-req", 100, 50, 16, 0)  // 16-page request
	b.Emit(KindSwapReq, "swap-req", 200, 50, 512, 0) // huge request
	b.Emit(KindPTELock, "pte-lock", 100, 40, 1, 2)   // 40 ns hold
	b.Emit(KindShootdown, "tlb-shootdown", 300, 10, 15, 1)
	b.Emit(KindShootdown, "tlb-shootdown", 1300, 10, 15, 1) // gap = 1000 ns
	// A bus event's byte count is trace detail; the series reads Perf.
	b.Emit(KindBus, "memmove", 400, 100, 1, 0)

	s := SnapshotOf(tr)
	if s.EventsByKind["swap_req"] != 2 || s.EventsByKind["shootdown"] != 2 {
		t.Errorf("kind counts wrong: %v", s.EventsByKind)
	}
	if s.Perf.IPIsSent != 30 || s.Perf.BytesCopied != 4096 {
		t.Errorf("ipis=%d busbytes=%d, want 30/4096", s.Perf.IPIsSent, s.Perf.BytesCopied)
	}
	if s.SwapPages.Count != 2 || s.SwapPages.Sum != 528 {
		t.Errorf("swap pages hist: count=%d sum=%g, want 2/528", s.SwapPages.Count, s.SwapPages.Sum)
	}
	if s.LockHoldNs.Count != 1 || s.LockHoldNs.Sum != 40 {
		t.Errorf("lock hold hist: count=%d sum=%g", s.LockHoldNs.Count, s.LockHoldNs.Sum)
	}
	// Only the gap between the two shootdowns is observed, not the first.
	if s.ShootdownGapNs.Count != 1 || s.ShootdownGapNs.Sum != 1000 {
		t.Errorf("shootdown gap hist: count=%d sum=%g, want 1/1000",
			s.ShootdownGapNs.Count, s.ShootdownGapNs.Sum)
	}

	// Merge doubles everything.
	s2 := SnapshotOf(tr)
	s2.Merge(s)
	if s2.Perf.IPIsSent != 60 || s2.SwapPages.Count != 4 {
		t.Errorf("Merge: ipis=%d swapcount=%d, want 60/4", s2.Perf.IPIsSent, s2.SwapPages.Count)
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`svagc_trace_events_total{kind="swap_req"} 2`,
		"svagc_ipis_total 30",
		"svagc_bus_bytes_total 4096",
		"svagc_swap_request_pages_count 2",
		"svagc_pte_lock_hold_ns_sum 40",
		`svagc_shootdown_interval_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}
