// Package smr implements a raft-style state-machine-replication serving
// workload whose availability is driven by GC pauses: a deterministic
// cluster of replica JVMs on one simulated machine, each appending the
// same replicated log, with heartbeats and election timeouts measured on
// the simulated clocks. A replica whose per-round GC pause exceeds the
// election timeout misses its heartbeats — a paused leader is voted out
// (leader churn), a paused follower is evicted from the quorum and must
// catch up by replaying the log batch it failed to acknowledge. The
// figure the workload backs (smr1) shows the paper's tail-latency claim
// as an availability claim: at the same heap sizes, a collector with
// flat pauses (SVAGC) suffers measurably fewer failovers than copying
// collectors whose pauses grow with the live set.
//
// Determinism: all timing comes from the simulated clocks and all
// randomness from a single seeded PRNG consumed in a fixed order, so the
// same seed reproduces the same failover count and the same commit hash
// bit-for-bit (the determinism test enforces this).
package smr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// classLogEntry tags replicated-log entries in the heap.
const classLogEntry = 21

const (
	// entryPayload is the base log-entry payload in bytes; a seeded
	// jitter of up to 25% is added per entry. It is page-scale on
	// purpose: entries are then page-aligned swappable objects under the
	// paper's Algorithm 3, so SVAGC compacts them by PTE exchange —
	// sub-page entries would be memmoved by every collector alike and
	// erase the availability gap the figure measures.
	entryPayload = 16 << 10
	// heartbeatNs is the heartbeat/round interval.
	heartbeatNs = 100 * sim.Microsecond
	// netRTTNs is the replication network round trip.
	netRTTNs = 25 * sim.Microsecond
)

// Config shapes one SMR cluster run.
type Config struct {
	// Collector is the jvm preset name every replica runs ("svagc",
	// "copygc", "parallelgc", ...).
	Collector string
	// Replicas is the cluster size (default 3).
	Replicas int
	// HeapBytes is each replica's heap capacity.
	HeapBytes int64
	// Rounds is the number of replication rounds (default 150). Each
	// round is one heartbeat interval in which the leader commits one
	// batch of log entries.
	Rounds int
	// ElectionTimeoutNs is how long a silent replica survives before the
	// cluster votes it out (default 10 heartbeats).
	ElectionTimeoutNs sim.Time
	// GCWorkers is each replica's GC worker count.
	GCWorkers int
	// Seed drives the entry-size jitter (and nothing else).
	Seed int64
	// CapFrames, when > 0, gives every replica its own tenant memory cap
	// of that many frames (machine.NewTenant).
	CapFrames int
	// MaxConcurrentGC, when > 0, arms the machine-wide GC arbiter with
	// that concurrency bound; each round the leader declares its
	// heartbeat window latency-sensitive, so follower collections defer
	// around it.
	MaxConcurrentGC int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 150
	}
	if c.ElectionTimeoutNs <= 0 {
		c.ElectionTimeoutNs = 10 * heartbeatNs
	}
	return c
}

// Result summarises one cluster run.
type Result struct {
	Collector string
	Replicas  int
	Rounds    int
	// Commits is the number of committed rounds (every round commits,
	// some degraded or through an election).
	Commits int
	// Failovers counts leader churn: rounds where the leader's GC pause
	// exceeded the election timeout and the cluster elected a new one.
	Failovers int
	// Evictions counts followers (and deposed leaders) voted out of the
	// quorum for pausing past the timeout.
	Evictions int
	// ReplayEntries is the total log entries re-fetched by evicted
	// replicas catching back up.
	ReplayEntries int
	// Commit-latency distribution over rounds.
	P50, P99, P999, Max sim.Time
	// MaxPause is the worst single GC pause across the cluster.
	MaxPause sim.Time
	// Arbiter is the admission book's counters (zero when unarbitrated).
	Arbiter sched.Stats
	// CommitHash is an FNV-1a digest of every round's (round, term,
	// leader, latency) record — the determinism witness.
	CommitHash uint64
	// Elapsed is the simulated time the cluster covered: the latest
	// replica's application time (mutator clock plus GC) after the last
	// round.
	Elapsed sim.Time
}

// replica is one cluster member: a JVM tenant plus its replicated-log
// ring (the live set) and its failure-detector state.
type replica struct {
	j  *jvm.JVM
	th *jvm.Thread
	// ring holds the live tail of the replicated log; appends replace the
	// oldest entry, keeping the live set at a steady ~40% of the heap.
	// words mirrors the ring with each entry's payload word count.
	ring      []*gc.Root
	words     []int
	cursor    int
	lastPause sim.Time
	// catchup marks a replica evicted last round: this round it replays
	// the batch it missed and sits out the commit quorum.
	catchup bool
}

// append applies one log entry: allocate it, root it, retire the oldest.
func (r *replica) append(spec heap.AllocSpec) error {
	o, err := r.th.Alloc(spec)
	if err != nil {
		return err
	}
	if old := r.ring[r.cursor]; old != nil {
		r.j.Roots.Remove(old)
	}
	r.ring[r.cursor] = r.j.Roots.Add(o)
	r.words[r.cursor] = (spec.Payload + 7) / 8
	r.cursor = (r.cursor + 1) % len(r.ring)
	return nil
}

// pauseDelta returns the GC pause time this replica accumulated since
// the last call — the failure detector's per-round signal.
func (r *replica) pauseDelta() sim.Time {
	total := r.j.GCPauseTime()
	d := total - r.lastPause
	r.lastPause = total
	return d
}

// Run executes the cluster on m and reports availability and latency.
func Run(m *machine.Machine, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()

	var arb *sched.Arbiter
	if cfg.MaxConcurrentGC > 0 {
		arb = sched.New(sched.Config{
			MaxConcurrent: cfg.MaxConcurrentGC,
			Injector:      m.FaultInjector(),
		})
	}

	baseSpec := heap.AllocSpec{Payload: entryPayload, Class: classLogEntry}
	ringLen := int(cfg.HeapBytes * 2 / 5 / int64(baseSpec.TotalBytes()))
	if ringLen < 8 {
		ringLen = 8
	}
	// Each replica applies an eighth of the live ring per round, so
	// steady-state rounds trigger collections every handful of rounds.
	appends := ringLen / 8
	if appends < 1 {
		appends = 1
	}

	reps := make([]*replica, cfg.Replicas)
	for i := range reps {
		var tenant *mem.Tenant
		if cfg.CapFrames > 0 {
			t, err := m.NewTenant(fmt.Sprintf("r%d", i), cfg.CapFrames)
			if err != nil {
				return nil, fmt.Errorf("smr: replica %d: %w", i, err)
			}
			tenant = t
		}
		jcfg, ok := jvm.ConfigFor(cfg.Collector, cfg.HeapBytes, 1, cfg.GCWorkers)
		if !ok {
			return nil, fmt.Errorf("smr: unknown collector %q", cfg.Collector)
		}
		jcfg.Tenant = tenant
		jcfg.Arbiter = arb
		jcfg.BaseCore = i * (1 + cfg.GCWorkers)
		j, err := jvm.New(m, jcfg)
		if err != nil {
			return nil, fmt.Errorf("smr: replica %d: %w", i, err)
		}
		reps[i] = &replica{j: j, th: j.Thread(0),
			ring: make([]*gc.Root, ringLen), words: make([]int, ringLen)}
	}

	// The log is replicated, so every replica applies the same entry
	// sizes in the same order: jitter is drawn once per position and
	// shared.
	rng := rand.New(rand.NewSource(cfg.Seed))
	jitter := func() heap.AllocSpec {
		s := baseSpec
		s.Payload += rng.Intn(entryPayload/4 + 1)
		return s
	}

	// Warm fill: every replica materialises the same full ring, so round
	// zero starts from the steady-state live set.
	warm := make([]heap.AllocSpec, ringLen)
	for k := range warm {
		warm[k] = jitter()
	}
	for i, r := range reps {
		for _, spec := range warm {
			if err := r.append(spec); err != nil {
				return nil, fmt.Errorf("smr: replica %d warm fill: %w", i, err)
			}
		}
		r.lastPause = r.j.GCPauseTime()
	}

	res := &Result{Collector: cfg.Collector, Replicas: cfg.Replicas, Rounds: cfg.Rounds}
	h := fnv.New64a()
	leader, term := 0, 0
	latencies := make([]sim.Time, 0, cfg.Rounds)
	batch := make([]heap.AllocSpec, appends)
	replayBuf := make([]uint64, 0)

	for round := 0; round < cfg.Rounds; round++ {
		// Catch-up: replicas evicted last round re-fetch the batch they
		// failed to acknowledge (charged payload reads of the newest ring
		// entries — the leader streaming its log tail) before rejoining.
		for i, r := range reps {
			if !r.catchup {
				continue
			}
			start := r.th.Ctx.Clock.Now()
			for k := 1; k <= appends; k++ {
				idx := (r.cursor - k + len(r.ring)) % len(r.ring)
				slot := r.ring[idx]
				if slot == nil {
					continue
				}
				n := r.words[idx]
				if cap(replayBuf) < n {
					replayBuf = make([]uint64, n)
				}
				if err := r.j.Heap.ReadPayloadWords(r.th.Ctx, slot.Obj, 0, 0, replayBuf[:n]); err != nil {
					return nil, fmt.Errorf("smr: replica %d replay: %w", i, err)
				}
			}
			res.ReplayEntries += appends
			r.th.Ctx.Trace.Emit(trace.KindApp, "smr-replay", start,
				r.th.Ctx.Clock.Since(start), uint64(appends), uint64(round))
		}

		// Heartbeat interval: every replica's clock ticks forward, and
		// with the arbiter armed the leader declares the first half of
		// its interval latency-sensitive, deferring neighbours' GCs.
		for _, r := range reps {
			r.th.Ctx.Clock.Advance(heartbeatNs)
		}
		ld := reps[leader]
		arb.DeclareDeadline(ld.j.Name(), ld.th.Ctx.Clock.Now(), heartbeatNs/2)

		// Apply the round's batch on every replica (the log is
		// replicated; catch-up replicas apply too — they are only out of
		// the quorum, not out of the cluster).
		for k := range batch {
			batch[k] = jitter()
		}
		for i, r := range reps {
			for _, spec := range batch {
				if err := r.append(spec); err != nil {
					return nil, fmt.Errorf("smr: replica %d round %d: %w", i, round, err)
				}
			}
		}

		// Failure detection: a replica's GC pauses this round are time
		// it could not send or acknowledge heartbeats.
		delays := make([]sim.Time, len(reps))
		for i, r := range reps {
			delays[i] = r.pauseDelta()
		}

		latency := netRTTNs
		if delays[leader] > cfg.ElectionTimeoutNs {
			// Leader churn: the cluster waits out the timeout, elects the
			// most responsive eligible follower, and the deposed leader
			// re-enters as a catch-up follower.
			old := leader
			next, found := -1, false
			for i, r := range reps {
				if i == old || r.catchup {
					continue
				}
				if !found || delays[i] < delays[next] {
					next, found = i, true
				}
			}
			if found {
				leader = next
			}
			term++
			res.Failovers++
			res.Evictions++
			reps[old].catchup = true
			latency += cfg.ElectionTimeoutNs + netRTTNs
			nl := reps[leader]
			nl.th.Ctx.Trace.Emit(trace.KindApp, "smr-election", nl.th.Ctx.Clock.Now(),
				cfg.ElectionTimeoutNs, uint64(term), uint64(round))
		}

		// Quorum: the leader needs ⌊N/2⌋ follower acks; the k-th fastest
		// eligible follower's pause bounds the commit. Paused-out
		// followers are evicted for the next round.
		var acks []sim.Time
		for i, r := range reps {
			if i == leader {
				continue
			}
			wasCatchup := r.catchup
			r.catchup = false
			if delays[i] > cfg.ElectionTimeoutNs {
				if !wasCatchup {
					res.Evictions++
				}
				r.catchup = true
				continue
			}
			if !wasCatchup {
				acks = append(acks, delays[i])
			}
		}
		need := cfg.Replicas / 2
		sort.Slice(acks, func(a, b int) bool { return acks[a] < acks[b] })
		if len(acks) >= need && need > 0 {
			latency += acks[need-1]
		} else if need > 0 {
			// Quorum degraded below majority: the commit stalls a full
			// timeout waiting for evicted replicas.
			latency += cfg.ElectionTimeoutNs
		}
		latencies = append(latencies, latency)
		res.Commits++

		var rec [32]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(round))
		binary.LittleEndian.PutUint64(rec[8:], uint64(term))
		binary.LittleEndian.PutUint64(rec[16:], uint64(leader))
		binary.LittleEndian.PutUint64(rec[24:], uint64(latency))
		h.Write(rec[:])
	}

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	res.P50 = percentile(latencies, 0.50)
	res.P99 = percentile(latencies, 0.99)
	res.P999 = percentile(latencies, 0.999)
	res.Max = percentile(latencies, 1)
	for _, r := range reps {
		if p := r.j.GC.Stats().MaxPause(""); p > res.MaxPause {
			res.MaxPause = p
		}
		res.Elapsed = max(res.Elapsed, r.j.AppTime())
	}
	res.Arbiter = arb.Stats()
	res.CommitHash = h.Sum64()
	return res, nil
}

// percentile reads the p-th quantile of a sorted sample (nearest rank).
func percentile(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
