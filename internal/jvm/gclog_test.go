package jvm

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestGCLogEmitsLines(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	j, err := New(m, svagcConfig(4<<20, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	j.WithGCLog(&buf)
	if j.GC.Name() != "svagc" {
		t.Errorf("wrapped name %q", j.GC.Name())
	}
	th := j.Thread(0)
	var prev interface{ String() string }
	_ = prev
	for i := 0; i < 120; i++ {
		r, err := th.AllocRooted(heap.AllocSpec{Payload: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		j.Roots.Remove(r)
	}
	if j.GCCount("") == 0 {
		t.Fatal("no GC happened")
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != j.GCCount("") {
		t.Errorf("%d log lines for %d pauses:\n%s", lines, j.GCCount(""), out)
	}
	for _, want := range []string{"[gc,0]", "svagc full", "allocation failure", "compact", "K->"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	// Stats pass through the wrapper.
	if j.GC.Stats().Count("") != j.GCCount("") {
		t.Error("wrapper hides stats")
	}
}
