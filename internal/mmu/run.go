package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Run declares a strided sequence of charged word accesses — the unit of
// epoch-batched cost settlement. Workloads (and GC phases) that know their
// access pattern up front declare it as a run instead of issuing one
// charged call per word; the settlement layer then integrates the TLB,
// LLC, bus and NUMA costs of the whole run in closed form, page segment by
// page segment. The contract is bit-exactness: a settled run leaves the
// clock, the perf counters, the TLB and the cache in exactly the state the
// equivalent per-word call sequence would.
type Run struct {
	// VA is the address of the first word; must be 8-byte aligned.
	VA uint64
	// Stride is the distance between consecutive words in bytes; a
	// multiple of 8. Zero means dense (8).
	Stride int
	// Words is the number of words the run touches.
	Words int
	// Write marks the run as store traffic (allocate-on-write caching,
	// NVM write multiplier).
	Write bool
}

func (r Run) stride() int {
	if r.Stride == 0 {
		return 8
	}
	return r.Stride
}

func (r Run) validate() error {
	if r.VA%8 != 0 || r.Words < 0 || r.stride() < 8 || r.stride()%8 != 0 {
		return fmt.Errorf("mmu: invalid run %+v (VA must be 8-aligned, stride a positive multiple of 8)", r)
	}
	return nil
}

// ChargeRun accounts for every access of the declared run without moving
// data. It is the charge-only entry for kernels whose host-side data
// already lives elsewhere.
func (as *AddressSpace) ChargeRun(env *Env, r Run) error {
	if err := r.validate(); err != nil {
		return err
	}
	return as.settleRun(env, r.VA, r.stride(), r.Words, r.Write, nil)
}

// ReadRun performs len(dst) charged dense word loads starting at va,
// filling dst — the batched counterpart of a ReadWord loop.
func (as *AddressSpace) ReadRun(env *Env, va uint64, dst []uint64) error {
	return as.settleRun(env, va, 8, len(dst), false, dst)
}

// WriteRun performs len(src) charged dense word stores starting at va.
// Callers that maintain software write barriers (the heap's reference
// slots) must not route barrier-carrying stores through it.
func (as *AddressSpace) WriteRun(env *Env, va uint64, src []uint64) error {
	return as.settleRun(env, va, 8, len(src), true, src)
}

// settleRun counts the run and charges (and, when data is non-nil,
// moves) its words; a run whose va is not 8-aligned is rejected first.
// It settles the run one page segment at a time through settlePage, so a
// run inside one page makes exactly one call, bit-identical to the
// per-word sequence: the fixed-point clock makes the charge multiset
// order-independent, each page's first word pays the real translation
// (a page-in included) while the rest are TLB hits by construction, and
// per-line cache probes are shared with the per-word path
// (cache.AccessRange's set-level integration), so word-level hits are
// exactly words minus line misses. ReadRun and WriteRun are one call to
// it, so they inline into their callers.
func (as *AddressSpace) settleRun(env *Env, va uint64, stride, words int, write bool, data []uint64) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: run at va %#x not 8-aligned", va)
	}
	env.Perf.ChargeRuns++
	env.Perf.RunWords += uint64(words)
	if words == 0 {
		return nil
	}
	if as.swapper != nil {
		env.Perf.RunFallbacks++
	}
	for words > 0 {
		k, err := as.settlePage(env, va, stride, words, write, data)
		if err != nil {
			return err
		}
		if data != nil {
			data = data[k:]
		}
		words -= k
		va += uint64(k * stride)
	}
	return nil
}

// settlePage settles the first words of the run at va that lie on va's
// page (all of them, when the run ends there) and returns how many it
// settled. data, when non-nil, holds those words' values and is dense:
// only ReadRun and WriteRun move data.
func (as *AddressSpace) settlePage(env *Env, va uint64, stride, words int, write bool, data []uint64) (int, error) {
	env.Perf.TLBLookups++
	f, hit := env.TLB.Lookup(as.ASID, VPN(va))
	if !hit {
		var err error
		if f, err = as.walk(env, va); err != nil {
			return 0, err
		}
	}
	off := va & mem.PageMask
	// Words are 8-aligned with 8-multiple strides, so none straddles a
	// page; k is how many fit on this one.
	var k int
	if stride == 8 {
		k = int(mem.PageSize-off) >> 3
	} else {
		k = (mem.PageSize-int(off)-8)/stride + 1
	}
	k = min(k, words)
	pa := uint64(f)<<mem.PageShift | off

	if env.NUMA != nil && !env.NUMA.LocalAt(pa) {
		env.settleRemote(pa, stride, k, write, hit)
	} else {
		env.Perf.TLBLookups += uint64(k - 1)
		var hits, misses int
		switch c := env.Cache; {
		case c == nil:
			misses = k
		case stride == 8 && pa^(pa+uint64(8*k-8)) < uint64(c.LineSize()):
			// One line: Access makes the same state transition as
			// AccessRange, and only the first word can miss.
			if c.Access(pa) {
				hits = k
			} else {
				hits, misses = k-1, 1
			}
		case stride == 8:
			// Dense: every line probed once; within a line, words after
			// the first are repeat-line hits. Word-level misses are
			// therefore exactly the line misses.
			_, misses = c.AccessRange(pa, 8*k)
			hits = k - misses
		default:
			for i := 0; i < k; i++ {
				if c.Access(pa + uint64(i*stride)) {
					hits++
				}
			}
			misses = k - hits
		}
		env.Perf.CacheRefs += uint64(k)
		env.Perf.CacheMisses += uint64(misses)
		var miss sim.Ticks
		if misses > 0 {
			miss = env.missTicks(pa, misses, write)
		}
		tlbHits := k - 1 // words after the first hit the TLB by construction
		if hit {
			tlbHits++
		}
		// One clock add of the integer total, bit-identical to charging
		// each hit and miss in turn.
		if q := &env.Q; q.TLBHit|q.CacheHit|miss < segmentTickLimit {
			env.Clock.AdvanceTicks(sim.Ticks(tlbHits)*q.TLBHit +
				sim.Ticks(hits)*q.CacheHit + sim.Ticks(misses)*miss)
		} else {
			env.settleEach(tlbHits, hits, misses, miss)
		}
	}

	if write {
		env.Perf.BytesWrite += 8 * uint64(k)
	} else {
		env.Perf.BytesRead += 8 * uint64(k)
	}
	if data != nil {
		if write {
			p := as.Phys.Frame(f)[off:]
			for i, w := range data[:k] {
				binary.LittleEndian.PutUint64(p[8*i:], w)
			}
		} else {
			p := as.Phys.View(f)[off:]
			for i := range data[:k] {
				data[i] = binary.LittleEndian.Uint64(p[8*i:])
			}
		}
	}
	return k, nil
}

// missTicks is the quantised latency of each of a node-local page
// segment's misses LLC misses at pa, counted on the NUMA view as misses
// accesses.
func (e *Env) missTicks(pa uint64, misses int, write bool) sim.Ticks {
	lat := float64(e.Cost.DRAMAccessNs)
	if e.NUMA != nil {
		lat = e.NUMA.LatencyAtN(pa, misses)
	} else if e.Latency != nil {
		lat *= e.Latency()
	}
	if write {
		lat *= e.Cost.WriteMult()
	}
	return sim.ToTicks(sim.Time(lat))
}

// settleRemote settles a cross-socket page segment of k words from pa
// word by word: the contention boundary keeps interconnect brownout rolls
// and remote counters per access. The segment's translation already
// counted word 0's lookup (and charged it, if it walked); the rest are
// TLB hits either way.
func (e *Env) settleRemote(pa uint64, stride, k int, write, hit bool) {
	if hit {
		e.Clock.AdvanceTicks(e.Q.TLBHit)
	}
	for i := 0; i < k; i++ {
		if i > 0 {
			e.Perf.TLBLookups++
			e.Clock.AdvanceTicks(e.Q.TLBHit)
		}
		e.chargeWordAccess(pa+uint64(i*stride), write)
	}
}

// segmentTickLimit bounds the per-word charges settlePage sums in one
// add. A page segment makes at most 2*512 charges (a TLB hit and an LLC
// hit or miss per word), so while each is below 2^54 ticks (2^22 ns,
// about 4 ms) their total stays below 2^64.
const segmentTickLimit = sim.Ticks(1) << 54

// settleEach charges a node-local page segment's tlbHits TLB hits, hits
// LLC hits and misses LLC misses of miss each one by one: the path for a
// cost model whose per-word charges reach segmentTickLimit, where their
// one-add total could overflow.
func (e *Env) settleEach(tlbHits, hits, misses int, miss sim.Ticks) {
	for i := 0; i < tlbHits; i++ {
		e.Clock.AdvanceTicks(e.Q.TLBHit)
	}
	for i := 0; i < hits; i++ {
		e.Clock.AdvanceTicks(e.Q.CacheHit)
	}
	for i := 0; i < misses; i++ {
		e.Clock.AdvanceTicks(miss)
	}
}
