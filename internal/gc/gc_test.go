package gc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestRootSetAddRemove(t *testing.T) {
	rs := &RootSet{}
	r1 := rs.Add(heap.Object(0x1000))
	r2 := rs.Add(heap.Object(0x2000))
	r3 := rs.Add(heap.Object(0x3000))
	if rs.Len() != 3 {
		t.Fatalf("Len = %d", rs.Len())
	}
	rs.Remove(r2)
	if rs.Len() != 2 {
		t.Fatalf("Len after remove = %d", rs.Len())
	}
	// Double remove is a no-op.
	rs.Remove(r2)
	if rs.Len() != 2 {
		t.Fatal("double remove changed the set")
	}
	// The survivors are r1 and r3.
	snap := rs.Snapshot()
	seen := map[*Root]bool{}
	for _, r := range snap {
		seen[r] = true
	}
	if !seen[r1] || !seen[r3] || seen[r2] {
		t.Error("wrong survivors after swap-remove")
	}
	// Removing the swapped-in root must still work (index maintenance).
	rs.Remove(r3)
	rs.Remove(r1)
	if rs.Len() != 0 {
		t.Errorf("Len = %d after removing all", rs.Len())
	}
}

// Property: any interleaving of adds and removes keeps Len consistent and
// never loses a live root.
func TestRootSetQuick(t *testing.T) {
	prop := func(ops []uint8) bool {
		rs := &RootSet{}
		var live []*Root
		for i, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				live = append(live, rs.Add(heap.Object(uint64(i+1)*64)))
			} else {
				idx := int(op) % len(live)
				rs.Remove(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			}
			if rs.Len() != len(live) {
				return false
			}
		}
		snap := rs.Snapshot()
		if len(snap) != len(live) {
			return false
		}
		want := map[*Root]bool{}
		for _, r := range live {
			want[r] = true
		}
		for _, r := range snap {
			if !want[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPoolAttribution(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	base := m.NewContext(0)
	base.Clock.Advance(100)
	p := NewPool(base, 4)
	if p.Size() != 4 {
		t.Fatalf("Size = %d", p.Size())
	}
	for i := 0; i < 4; i++ {
		if got := p.Worker(i).Clock.Now(); got != 100 {
			t.Errorf("worker %d starts at %v", i, got)
		}
	}
	// Round-robin covers all workers.
	seen := map[*machine.Context]int{}
	for i := 0; i < 8; i++ {
		seen[p.Next()]++
	}
	if len(seen) != 4 {
		t.Errorf("Next() visited %d workers", len(seen))
	}
	for w, n := range seen {
		if n != 2 {
			t.Errorf("worker %v visited %d times", w.Core.ID, n)
		}
	}
}

func TestPoolBarrierSync(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	p := NewPool(m.NewContext(0), 3)
	p.Worker(0).Clock.Advance(50)
	p.Worker(1).Clock.Advance(200)
	p.Worker(2).Clock.Advance(10)
	if got := p.MaxNow(); got != 200 {
		t.Fatalf("MaxNow = %v", got)
	}
	end := p.BarrierSync(25)
	if end != 225 {
		t.Fatalf("BarrierSync = %v", end)
	}
	for i := 0; i < 3; i++ {
		if p.Worker(i).Clock.Now() != 225 {
			t.Errorf("worker %d not synced", i)
		}
	}
}

func TestPoolCollectPerf(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	p := NewPool(m.NewContext(0), 2)
	p.Worker(0).Perf.Syscalls = 3
	p.Worker(1).Perf.Syscalls = 4
	var sum sim.Perf
	p.CollectPerf(&sum)
	if sum.Syscalls != 7 {
		t.Errorf("CollectPerf sum = %d", sum.Syscalls)
	}
	for i := 0; i < p.Size(); i++ {
		if got := p.Worker(i).Perf.Syscalls; got != 0 {
			t.Errorf("worker %d keeps %d syscalls after CollectPerf, want them moved", i, got)
		}
	}
}

func TestPoolMinimumSize(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	if got := NewPool(m.NewContext(0), 0).Size(); got != 1 {
		t.Errorf("zero-size pool has %d workers", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := &Stats{}
	s.Pauses = append(s.Pauses,
		PauseInfo{Kind: KindFull, Total: 100, Phases: PhaseTimes{Mark: 10, Compact: 60}, SwappedPages: 5, MovedBytes: 7},
		PauseInfo{Kind: KindFull, Total: 300, Phases: PhaseTimes{Mark: 30, Compact: 200}},
		PauseInfo{Kind: KindMinor, Total: 50, SwappedPages: 1, MovedBytes: 3},
	)
	if s.Count("") != 3 || s.Count(KindFull) != 2 || s.Count(KindMinor) != 1 {
		t.Error("Count wrong")
	}
	if s.TotalPause("") != 450 || s.TotalPause(KindFull) != 400 {
		t.Error("TotalPause wrong")
	}
	if s.MaxPause("") != 300 || s.MaxPause(KindMinor) != 50 {
		t.Error("MaxPause wrong")
	}
	if s.AvgPause(KindFull) != 200 || s.AvgPause("nope") != 0 {
		t.Error("AvgPause wrong")
	}
	pt := s.PhaseTotals(KindFull)
	if pt.Mark != 40 || pt.Compact != 260 {
		t.Errorf("PhaseTotals %+v", pt)
	}
	if s.SwappedPages() != 6 || s.MovedBytes() != 10 {
		t.Error("swap/move totals wrong")
	}
	if pt.Total() != 300 || pt.Other() != 40 {
		t.Errorf("Total/Other wrong: %v %v", pt.Total(), pt.Other())
	}
}

func TestPauseInfoString(t *testing.T) {
	p := &PauseInfo{Kind: KindFull, Total: 1500, LiveBytes: 42}
	if s := p.String(); !strings.Contains(s, "full pause") || !strings.Contains(s, "42B") {
		t.Errorf("String = %q", s)
	}
}

func TestCauseString(t *testing.T) {
	if CauseAllocFailure.String() != "allocation failure" ||
		CauseExplicit.String() != "explicit" ||
		Cause(9).String() == "" {
		t.Error("Cause strings wrong")
	}
}
