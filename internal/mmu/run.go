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
// equivalent per-word call sequence would, so figures are byte-identical
// whichever path executes (see Env.Batch for when the per-word path
// runs).
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
	env.Perf.ChargeRuns++
	env.Perf.RunWords += uint64(r.Words)
	return as.settleRun(env, r.VA, r.stride(), r.Words, r.Write, nil)
}

// ReadRun performs len(dst) charged dense word loads starting at va,
// filling dst — the batched counterpart of a ReadWord loop.
func (as *AddressSpace) ReadRun(env *Env, va uint64, dst []uint64) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: ReadRun: va %#x not 8-aligned", va)
	}
	env.Perf.ChargeRuns++
	env.Perf.RunWords += uint64(len(dst))
	return as.settleRun(env, va, 8, len(dst), false, dst)
}

// WriteRun performs len(src) charged dense word stores starting at va.
// Callers that maintain software write barriers (the heap's reference
// slots) must not route barrier-carrying stores through it.
func (as *AddressSpace) WriteRun(env *Env, va uint64, src []uint64) error {
	if va%8 != 0 {
		return fmt.Errorf("mmu: WriteRun: va %#x not 8-aligned", va)
	}
	env.Perf.ChargeRuns++
	env.Perf.RunWords += uint64(len(src))
	return as.settleRun(env, va, 8, len(src), true, src)
}

// settleRun charges (and, when data is non-nil, moves) the run's words.
// With Env.Batch set it integrates per page segment in closed form;
// otherwise it replays the exact per-word sequence. Both paths produce
// bit-identical clock, counter, TLB and cache state: the fixed-point
// clock makes the charge multiset order-independent, each page's first
// word pays the real translation while the rest are TLB hits by
// construction, and per-line cache probes are shared with the per-word
// path (cache.AccessRange's set-level integration), so word-level hits
// are exactly words minus line misses.
func (as *AddressSpace) settleRun(env *Env, va uint64, stride, words int, write bool, data []uint64) error {
	if words == 0 {
		return nil
	}
	if !env.Batch {
		env.Perf.RunFallbacks++
		return as.exactWords(env, va, stride, words, write, data)
	}
	idx := 0
	for words > 0 {
		env.Perf.TLBLookups++
		f, hit := env.TLB.Lookup(as.ASID, VPN(va))
		if !hit {
			var err error
			if f, err = as.walk(env, va); err != nil {
				return err
			}
		}
		off := va & mem.PageMask
		// Words are 8-aligned with 8-multiple strides, so none straddles
		// a page; k is how many fit on this one.
		k := (mem.PageSize - int(off) - 8) / stride
		if k >= words {
			k = words - 1
		}
		k++ // the first word plus k-1 more
		pa := uint64(f)<<mem.PageShift | off

		if env.NUMA != nil && !env.NUMA.LocalAt(pa) {
			// Cross-socket stream: the contention boundary settles this
			// segment per word (the page translation above already covers
			// word 0; the rest are TLB hits either way).
			if hit {
				env.Clock.AdvanceTicks(env.Q.TLBHit)
			}
			for i := 0; i < k; i++ {
				if i > 0 {
					env.Perf.TLBLookups++
					env.Clock.AdvanceTicks(env.Q.TLBHit)
				}
				env.chargeWordAccess(pa+uint64(i*stride), write)
			}
		} else {
			env.Perf.TLBLookups += uint64(k - 1)
			var hits, misses int
			switch {
			case env.Cache == nil:
				misses = k
			case stride == 8:
				// Dense: every line probed once; within a line, words
				// after the first are repeat-line hits. Word-level misses
				// are therefore exactly the line misses.
				_, lineMisses := env.Cache.AccessRange(pa, 8*k)
				hits, misses = k-lineMisses, lineMisses
			default:
				for i := 0; i < k; i++ {
					if env.Cache.Access(pa + uint64(i*stride)) {
						hits++
					} else {
						misses++
					}
				}
			}
			env.Perf.CacheRefs += uint64(k)
			env.Perf.CacheMisses += uint64(misses)
			var miss sim.Ticks
			if misses > 0 {
				lat := float64(env.Cost.DRAMAccessNs)
				if env.NUMA != nil {
					lat = env.NUMA.LatencyAtN(pa, misses)
				} else if env.Latency != nil {
					lat *= env.Latency()
				}
				if write {
					lat *= env.Cost.WriteMult()
				}
				miss = sim.ToTicks(sim.Time(lat))
			}
			tlbHits := k - 1 // words after the first hit the TLB by construction
			if hit {
				tlbHits++
			}
			env.settleSegment(tlbHits, hits, misses, miss)
		}

		if write {
			env.Perf.BytesWrite += 8 * uint64(k)
		} else {
			env.Perf.BytesRead += 8 * uint64(k)
		}
		if data != nil {
			frame := as.Phys.Frame(f)
			for i := 0; i < k; i++ {
				o := off + uint64(i*stride)
				if write {
					binary.LittleEndian.PutUint64(frame[o:o+8], data[idx+i])
				} else {
					data[idx+i] = binary.LittleEndian.Uint64(frame[o : o+8])
				}
			}
		}
		idx += k
		words -= k
		va += uint64(k * stride)
	}
	return nil
}

// segmentTickLimit bounds the per-word charges settleSegment sums in one
// add. A page segment makes at most 2*512 charges (a TLB hit and an LLC
// hit or miss per word), so while each is below 2^54 ticks (2^22 ns,
// about 4 ms) their total stays below 2^64.
const segmentTickLimit = sim.Ticks(1) << 54

// settleSegment charges a node-local page segment's tlbHits TLB hits,
// hits LLC hits and misses LLC misses of miss each: one clock add of the
// integer total, bit-identical to charging them one by one. A cost model
// with per-word charges past segmentTickLimit takes them one by one.
func (e *Env) settleSegment(tlbHits, hits, misses int, miss sim.Ticks) {
	if e.Q.TLBHit|e.Q.CacheHit|miss < segmentTickLimit {
		e.Clock.AdvanceTicks(sim.Ticks(tlbHits)*e.Q.TLBHit +
			sim.Ticks(hits)*e.Q.CacheHit + sim.Ticks(misses)*miss)
		return
	}
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

// exactWords is the per-word fallback: the identical call sequence a
// caller without the run API would have issued.
func (as *AddressSpace) exactWords(env *Env, va uint64, stride, words int, write bool, data []uint64) error {
	for i := 0; i < words; i++ {
		w := va + uint64(i*stride)
		switch {
		case data == nil:
			if _, err := as.wordAccess(env, w, write); err != nil {
				return err
			}
			if write {
				env.Perf.BytesWrite += 8
			} else {
				env.Perf.BytesRead += 8
			}
		case write:
			if err := as.WriteWord(env, w, data[i]); err != nil {
				return err
			}
		default:
			v, err := as.ReadWord(env, w)
			if err != nil {
				return err
			}
			data[i] = v
		}
	}
	return nil
}
