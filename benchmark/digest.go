package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/gc"
	"repro/internal/jvm"
	"repro/internal/sim"
	"repro/internal/workloads/smr"
)

// A run's digest is an FNV-1a hash over everything the simulator reports
// for it: application time, every pause record, GC counts and the full
// sim.Perf (plus the tier traffic), or, for an SMR cluster, the whole
// smr.Result including its CommitHash. Simulated results are
// deterministic, so a digest must repeat exactly across passes, traced or
// not, and must equal the checked-in expectation for seeds 42 and 7.

type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) i(v int)      { d.u(uint64(v)) }
func (d digest) t(v sim.Time) { d.u(math.Float64bits(float64(v))) }
func (d digest) s(v string)   { d.i(len(v)); d.h.Write([]byte(v)) }
func (d digest) sum() uint64  { return d.h.Sum64() }

// perf hashes every counter. binary.Write fails only if sim.Perf gains a
// field that is not fixed-size, which the digest would then silently skip.
func (d digest) perf(p *sim.Perf) {
	if err := binary.Write(d.h, binary.LittleEndian, p); err != nil {
		panic(fmt.Sprintf("digest: sim.Perf is no longer fixed-size: %v", err))
	}
}

func digestJVM(j *jvm.JVM, st *gc.Stats, t *simTotals) uint64 {
	d := newDigest()
	d.t(j.AppTime())
	d.t(j.MutatorTime())
	d.t(st.Concurrent)
	d.i(len(st.Pauses))
	for _, p := range st.Pauses {
		d.s(p.Kind)
		d.i(int(p.Cause))
		d.t(p.At)
		d.t(p.Total)
		d.t(p.Phases.Mark)
		d.t(p.Phases.Forward)
		d.t(p.Phases.Adjust)
		d.t(p.Phases.Compact)
		for _, v := range []uint64{p.LiveBytes, p.LiveObjects, p.MovedBytes, p.SwappedPages,
			p.SwapVACalls, p.MemmoveCalls, p.IPIs, p.Degraded} {
			d.u(v)
		}
	}
	d.perf(&t.perf)
	d.u(t.shootdowns)
	d.u(t.tierOut)
	d.u(t.tierIn)
	return d.sum()
}

func digestSMR(r *smr.Result, shootdowns uint64) uint64 {
	d := newDigest()
	d.s(r.Collector)
	for _, v := range []int{r.Replicas, r.Rounds, r.Commits, r.Failovers, r.Evictions, r.ReplayEntries} {
		d.i(v)
	}
	for _, v := range []sim.Time{r.P50, r.P99, r.P999, r.Max, r.MaxPause, r.Arbiter.TotalWaitNs, r.Arbiter.MaxWaitNs} {
		d.t(v)
	}
	for _, v := range []uint64{r.Arbiter.Grants, r.Arbiter.Waits, r.Arbiter.Deferrals, r.Arbiter.AgingBreaks,
		r.CommitHash, shootdowns} {
		d.u(v)
	}
	return d.sum()
}

// expectedDigests holds the checked-in digests: seed -> workload -> run
// label -> digest (hex). Regenerate with `go test -run TestDigests -update`.
//
//go:embed testdata/digests.json
var expectedDigestsJSON []byte

type digestTable map[string]map[string]map[string]string

func loadExpected() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(expectedDigestsJSON, &t); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return t, nil
}

// expectedFor returns the expected digest of each run of workload w at
// seed, or nil when no expectation is checked in for that seed.
func (t digestTable) expectedFor(w string, seed int64) (map[string]uint64, error) {
	runs, ok := t[strconv.FormatInt(seed, 10)][w]
	if !ok {
		return nil, nil
	}
	out := make(map[string]uint64, len(runs))
	for label, hex := range runs {
		v, err := strconv.ParseUint(hex, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("testdata/digests.json: %s %s: %w", w, label, err)
		}
		out[label] = v
	}
	return out, nil
}

func hexDigest(v uint64) string { return fmt.Sprintf("0x%016x", v) }
