package bench

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads/smr"
)

// smr1 cluster shape: a three-replica raft-style cell on one machine,
// every replica a capped tenant, collections arbitrated machine-wide.
// Heap size is the sweep variable; the election timeout is fixed (as it
// is in a real deployment), so a collector whose pauses outgrow it
// starts losing leaders.
const (
	smrReplicas  = 3
	smrRounds    = 80
	smrTimeoutNs = sim.Time(4_000_000) // 4 ms — a tight but deployable raft timeout
)

// smrOne runs one collector's cluster at one heap size on a fresh
// machine. Like oversub1, this figure never passes through runWorkload —
// the chaos CI drives the arbiter_stall site through it.
// The caller holds a machine slot.
func smrOne(opt Options, collector string, heapBytes int64) (*smr.Result, *trace.Tracer, error) {
	m, err := opt.NewMachine(machine.Config{})
	if err != nil {
		return nil, nil, err
	}
	r, err := smr.Run(m, smrConfig(opt, collector, heapBytes))
	return r, m.Tracer(), err
}

// smrConfig is the cluster smr1 runs for one collector at one heap size.
// Each tenant's cap is twice its heap plus slack: room for a copying
// collector's to-space, so the cap isolates runaways without throttling
// a well-behaved replica mid-collection.
func smrConfig(opt Options, collector string, heapBytes int64) smr.Config {
	return smr.Config{
		Collector:         collector,
		Replicas:          smrReplicas,
		HeapBytes:         heapBytes,
		Rounds:            smrRounds,
		ElectionTimeoutNs: smrTimeoutNs,
		GCWorkers:         opt.workers(),
		Seed:              opt.seed(),
		CapFrames:         2*int(heapBytes>>mem.PageShift) + 64,
		MaxConcurrentGC:   1,
	}
}

// smrRow is smr1's table row for one collector's cluster at one heap
// size.
func smrRow(collector string, heapBytes int64, r *smr.Result) []string {
	return []string{
		fmt.Sprintf("%d MiB", heapBytes>>20),
		collector,
		fmt.Sprintf("%d", r.Failovers),
		fmt.Sprintf("%d", r.Evictions),
		fmt.Sprintf("%d", r.ReplayEntries),
		r.P50.String(),
		r.P99.String(),
		r.P999.String(),
		r.Max.String(),
		r.MaxPause.String(),
		fmt.Sprintf("%d", r.Arbiter.Waits),
	}
}

// SMRLeaderChurn sweeps replica heap size for a GC-pause-driven
// availability study: a raft-style cluster commits a log batch per
// heartbeat, and any replica whose GC pause exceeds the election
// timeout misses heartbeats — a paused leader is voted out, a paused
// follower is evicted and replays the batch it missed. SVAGC's
// PTE-exchange compaction keeps pauses under the timeout at heap sizes
// where the copying collectors' pauses — which scale with the live set
// — already churn the leadership every collection.
func SMRLeaderChurn(opt Options) (*Result, error) {
	heaps := []int64{16 << 20, 32 << 20, 64 << 20, 96 << 20}
	if opt.Quick {
		heaps = []int64{32 << 20, 64 << 20}
	}
	collectors := []string{jvm.CollectorSVAGC, jvm.CollectorCopy, jvm.CollectorParallel}
	res := &Result{
		ID:    "smr1",
		Title: "Extension: SMR leader churn under GC pauses (capped tenants + GC arbiter)",
		Paper: "a replica paused past the election timeout is voted out, so GC pause tails become failovers; SVAGC's flat pauses keep the leader seated at heap sizes where copying collectors churn it every full collection",
		Header: []string{"heap", "collector", "failovers", "evictions", "replayed",
			"commit-p50", "commit-p99", "commit-p99.9", "commit-max", "max-pause", "arb-waits"},
	}
	runs := make([]*smr.Result, len(heaps)*len(collectors))
	traces := make([]*trace.Tracer, len(runs))
	if err := opt.HoldEach(len(runs), func(i int) (_ sim.Time, err error) {
		c, hb := collectors[i%len(collectors)], heaps[i/len(collectors)]
		if runs[i], traces[i], err = smrOne(opt, c, hb); err != nil {
			return 0, fmt.Errorf("smr1: %s at %d MiB: %w", c, hb>>20, err)
		}
		return runs[i].Elapsed, nil
	}); err != nil {
		return nil, err
	}
	for hi, hb := range heaps {
		for ci, c := range collectors {
			opt.record(traces[hi*len(collectors)+ci])
			res.Rows = append(res.Rows, smrRow(c, hb, runs[hi*len(collectors)+ci]))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d replicas, %d rounds, election timeout %v, heartbeat 100.000us, net RTT 25.000us",
			smrReplicas, smrRounds, smrTimeoutNs),
		"each replica is a capped tenant (cap = 2x heap + slack) and all collections pass through a machine-wide arbiter (max 1 concurrent; leader heartbeat windows deferred around)",
		"an evicted replica sits out one commit quorum and replays the log batch it failed to acknowledge before rejoining",
	)
	return res, nil
}
