package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestSpillKeepsEveryEvent(t *testing.T) {
	var out bytes.Buffer
	tr := New(4)
	tr.SetSpill(&out)
	b := tr.NewBuffer(0, &sim.Perf{})
	const n = 19 // 4 full-ring flushes + 3 events left in the ring
	for i := 0; i < n; i++ {
		b.Emit(KindBus, "ev", sim.Time(i*100), 50, uint64(i), 0)
	}

	if got := tr.Spilled(); got != 16 {
		t.Errorf("Spilled = %d, want 16", got)
	}
	tail := tr.Merge()
	if len(tail) != 3 {
		t.Fatalf("ring tail holds %d events, want 3", len(tail))
	}
	s := SnapshotOf(tr)
	if s.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (spill mode loses nothing)", s.Dropped)
	}
	if s.Emitted != n || s.Spilled != 16 {
		t.Errorf("emitted/spilled = %d/%d, want %d/16", s.Emitted, s.Spilled, n)
	}
	if err := tr.SpillErr(); err != nil {
		t.Fatal(err)
	}

	// Spilled output is one ChromeEvent JSON object per line, in emit
	// order, and together with the ring tail covers every event exactly
	// once.
	seen := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var ev ChromeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", seen, err)
		}
		if ev.Args == nil || ev.Args.Arg1 != uint64(seen) {
			t.Fatalf("line %d holds event %+v, want Arg1 %d", seen, ev, seen)
		}
		if ev.Name != "ev" || ev.Ph != "X" || ev.TS != float64(seen*100)/1e3 {
			t.Errorf("line %d malformed: %+v", seen, ev)
		}
		seen++
	}
	if seen != 16 {
		t.Errorf("spill file holds %d lines, want 16", seen)
	}
	for i, ev := range tail {
		if want := uint64(16 + i); ev.Arg1 != want {
			t.Errorf("tail slot %d holds event %d, want %d", i, ev.Arg1, want)
		}
	}
}

func TestSpillCapsRingSize(t *testing.T) {
	tr := New(1 << 20)
	tr.SetSpill(&bytes.Buffer{})
	b := tr.NewBuffer(0, &sim.Perf{})
	if b.cap != DefaultEventsPerContext {
		t.Errorf("spill-mode ring cap = %d, want %d", b.cap, DefaultEventsPerContext)
	}
}

type failWriter struct{ err error }

func (w *failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestSpillReportsWriterError(t *testing.T) {
	wantErr := errors.New("disk full")
	tr := New(2)
	tr.SetSpill(&failWriter{err: wantErr})
	b := tr.NewBuffer(0, &sim.Perf{})
	for i := 0; i < 8; i++ {
		b.Emit(KindBus, "ev", sim.Time(i), 1, 0, 0)
	}
	if err := tr.SpillErr(); !errors.Is(err, wantErr) {
		t.Errorf("SpillErr = %v, want %v", err, wantErr)
	}
	if got := tr.Spilled(); got != 0 {
		t.Errorf("Spilled = %d after write failure, want 0", got)
	}
}
