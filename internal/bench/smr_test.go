package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads/smr"
)

// TestSMRIsolationOffMovesOnlyArbWaits pins what smr1's isolation plane
// contributes to the figure: with neither tenant caps (CapFrames 0) nor
// the GC arbiter (MaxConcurrentGC 0), every quick row of
// smr1.quick.golden comes out the same except arb-waits, which reads 0.
// Failovers, evictions, replays, commit latencies and the max pause are
// the collectors' alone. The configurations are the golden's own rows.
func TestSMRIsolationOffMovesOnlyArbWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs smr1's six quick clusters")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "smr1.quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string // each row's fields; "32 MiB" is two
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[1] == "MiB" {
			want = append(want, f)
		}
	}
	if len(want) != quickCells["smr1"] {
		t.Fatalf("smr1.quick.golden has %d rows, want %d", len(want), quickCells["smr1"])
	}
	opt := quickOpt
	opt.Parallel = 2
	got := make([][]string, len(want))
	if err := opt.HoldEach(len(want), func(i int) (sim.Time, error) {
		mib, err := strconv.ParseInt(want[i][0], 10, 64)
		if err != nil {
			return 0, err
		}
		collector := want[i][2]
		m, err := opt.NewMachine(machine.Config{})
		if err != nil {
			return 0, err
		}
		cfg := smrConfig(opt, collector, mib<<20)
		cfg.CapFrames, cfg.MaxConcurrentGC = 0, 0
		r, err := smr.Run(m, cfg)
		if err != nil {
			return 0, err
		}
		got[i] = strings.Fields(strings.Join(smrRow(collector, mib<<20, r), " "))
		return r.Elapsed, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		last := len(w) - 1
		if w[last] == "0" {
			t.Errorf("golden row %d records no arbiter waits: the arbiter no longer acts", i)
		}
		exp := append(w[:last:last], "0")
		if strings.Join(got[i], " ") != strings.Join(exp, " ") {
			t.Errorf("row %d with caps and arbiter off:\n got %v\nwant %v", i, got[i], exp)
		}
	}
}
