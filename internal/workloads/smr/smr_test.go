package smr

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// run executes one cluster on a fresh machine with the given config.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatalf("smr run: %v", err)
	}
	return res
}

// TestDeterminism is the replay witness: the same seed must reproduce
// the same failover count and the same commit hash, bit for bit.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Collector:       "svagc",
		HeapBytes:       16 << 20,
		Rounds:          60,
		GCWorkers:       2,
		Seed:            42,
		MaxConcurrentGC: 1,
		CapFrames:       2*(16<<20)/4096 + 64,
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.CommitHash != b.CommitHash {
		t.Errorf("commit hash diverged: %#x vs %#x", a.CommitHash, b.CommitHash)
	}
	if a.Failovers != b.Failovers || a.Evictions != b.Evictions {
		t.Errorf("churn diverged: %d/%d failovers, %d/%d evictions",
			a.Failovers, b.Failovers, a.Evictions, b.Evictions)
	}
	if a.Commits != cfg.Rounds {
		t.Errorf("commits = %d, want %d (every round commits)", a.Commits, cfg.Rounds)
	}
	if a.MaxPause == 0 {
		t.Error("MaxPause = 0: the cluster never collected, so the workload is not exercising GC")
	}

	c := run(t, Config{
		Collector: cfg.Collector, HeapBytes: cfg.HeapBytes, Rounds: cfg.Rounds,
		GCWorkers: cfg.GCWorkers, Seed: 43, MaxConcurrentGC: 1,
	})
	if c.CommitHash == a.CommitHash {
		t.Error("different seeds produced the same commit hash; jitter is not reaching the log")
	}
}

// TestChurnOrdering checks the figure's availability claim at one point:
// with an election timeout sized to SVAGC's pauses, the copying
// collector — whose full-heap pauses scale with the live set — must
// churn at least as often, and SVAGC must stay under its timeout budget
// often enough to keep a working quorum.
func TestChurnOrdering(t *testing.T) {
	base := Config{
		HeapBytes:         32 << 20,
		Rounds:            60,
		GCWorkers:         4,
		Seed:              7,
		ElectionTimeoutNs: 4_000_000,
	}
	sv := base
	sv.Collector = "svagc"
	cp := base
	cp.Collector = "copygc"
	rs := run(t, sv)
	rc := run(t, cp)
	if rc.Failovers < rs.Failovers {
		t.Errorf("copygc failovers (%d) < svagc failovers (%d): pause-driven churn ordering inverted",
			rc.Failovers, rs.Failovers)
	}
	if rc.MaxPause <= rs.MaxPause {
		t.Errorf("copygc max pause (%v) <= svagc max pause (%v)", rc.MaxPause, rs.MaxPause)
	}
}
