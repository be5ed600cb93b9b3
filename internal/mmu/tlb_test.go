package mmu

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// refTLB is a brute-force direct-mapped TLB with no live summary: every
// ASID flush scans every slot, the semantics TLB must keep.
type refTLB struct {
	slots []refSlot
}

type refSlot struct {
	valid bool
	asid  uint32 // the 16-bit ASID the key encodes
	vpn   uint64
	frame mem.FrameID
}

func (r *refTLB) slot(vpn uint64) *refSlot { return &r.slots[vpn%uint64(len(r.slots))] }

func (r *refTLB) insert(asid uint32, vpn uint64, f mem.FrameID) {
	*r.slot(vpn) = refSlot{valid: true, asid: asid & 0xffff, vpn: vpn, frame: f}
}

func (r *refTLB) lookup(asid uint32, vpn uint64) (mem.FrameID, bool) {
	s := r.slot(vpn)
	if !s.valid || s.asid != asid&0xffff || s.vpn != vpn {
		return mem.NilFrame, false
	}
	return s.frame, true
}

func (r *refTLB) flushASID(asid uint32) {
	for i := range r.slots {
		if r.slots[i].asid == asid&0xffff {
			r.slots[i].valid = false
		}
	}
}

func (r *refTLB) flushPage(asid uint32, vpn uint64) {
	if s := r.slot(vpn); s.valid && s.asid == asid&0xffff && s.vpn == vpn {
		s.valid = false
	}
}

func (r *refTLB) flushAll() {
	for i := range r.slots {
		r.slots[i].valid = false
	}
}

// TestTLBMatchesReferenceModel drives TLB and refTLB through the same
// seeded op sequences over 1-4 ASIDs (one pair aliasing in the 16-bit
// key), so the live summary passes through every state, tlbMixed
// included, and checks that every Lookup agrees.
func TestTLBMatchesReferenceModel(t *testing.T) {
	const entries, vpns, ops = 16, 48, 4000
	asidPool := []uint32{1, 2, 7, 1 + 1<<16}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		asids := asidPool[:1+rng.Intn(len(asidPool))]
		tlb := NewTLB(entries)
		ref := &refTLB{slots: make([]refSlot, entries)}
		check := func(op int, asid uint32, vpn uint64) {
			gf, gok := tlb.Lookup(asid, vpn)
			wf, wok := ref.lookup(asid, vpn)
			if gf != wf || gok != wok {
				t.Fatalf("seed %d op %d: Lookup(%d, %d) = (%d, %v), reference (%d, %v); live=%#x",
					seed, op, asid, vpn, gf, gok, wf, wok, tlb.live.Load())
			}
		}
		for op := 0; op < ops; op++ {
			asid := asids[rng.Intn(len(asids))]
			vpn := uint64(rng.Intn(vpns))
			switch p := rng.Intn(100); {
			case p < 45:
				f := mem.FrameID(rng.Intn(1000) + 1)
				tlb.Insert(asid, vpn, f)
				ref.insert(asid, vpn, f)
			case p < 75:
				check(op, asid, vpn)
			case p < 88:
				tlb.FlushASID(asid)
				ref.flushASID(asid)
			case p < 97:
				tlb.FlushPage(asid, vpn)
				ref.flushPage(asid, vpn)
			default:
				tlb.FlushAll()
				ref.flushAll()
			}
			if op%500 == 0 {
				for _, a := range asids {
					for v := uint64(0); v < vpns; v++ {
						check(op, a, v)
					}
				}
			}
		}
	}
}

func TestTLBLiveSummaryStates(t *testing.T) {
	tlb := NewTLB(64)
	if got := tlb.live.Load(); got != 0 {
		t.Fatalf("fresh TLB live = %#x, want 0", got)
	}
	tlb.Insert(3, 10, 1)
	if got := tlb.live.Load(); got != 4 {
		t.Fatalf("after one ASID live = %#x, want 4", got)
	}
	tlb.FlushASID(5) // another ASID: nothing to do, summary kept
	if got := tlb.live.Load(); got != 4 {
		t.Fatalf("foreign flush changed live to %#x", got)
	}
	tlb.FlushASID(3)
	if got := tlb.live.Load(); got != 0 {
		t.Fatalf("emptying flush left live = %#x", got)
	}
	tlb.Insert(3, 10, 1)
	tlb.Insert(5, 11, 2)
	tlb.FlushASID(3)
	tlb.FlushASID(5)
	if got := tlb.live.Load(); got != tlbMixed {
		t.Fatalf("mixed summary not sticky: live = %#x", got)
	}
	tlb.Insert(5, 11, 2)
	tlb.FlushAll()
	if got := tlb.live.Load(); got != 0 {
		t.Fatalf("FlushAll left live = %#x", got)
	}
	if _, ok := tlb.Lookup(5, 11); ok {
		t.Fatal("FlushAll left an entry")
	}
}

// TestTLBFlushRacesInsert runs one goroutine inserting ASID x (every VPN
// once, so a hit on VPN k can only come from insert k) against two
// goroutines flushing x. After a FlushASID returns, no insert that had
// completed before it began may still hit. The mixed variant also
// inserts another ASID, which keeps the summary at tlbMixed.
func TestTLBFlushRacesInsert(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		const x, y, entries, flushes = 9, 10, 64, 3000
		tlb := NewTLB(entries)
		var done atomic.Uint64 // inserts of x completed, VPNs 1..done
		stop := make(chan struct{})
		var inserter, flushers sync.WaitGroup
		inserter.Add(1)
		go func() {
			defer inserter.Done()
			for k := uint64(1); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				tlb.Insert(x, k, mem.FrameID(k))
				done.Store(k)
				if mixed && k%3 == 0 {
					tlb.Insert(y, k+entries/2, 1)
				}
			}
		}()
		for w := 0; w < 2; w++ {
			flushers.Add(1)
			go func() {
				defer flushers.Done()
				for n := 0; n < flushes; n++ {
					c := done.Load()
					tlb.FlushASID(x)
					lo := uint64(1)
					if c > entries {
						lo = c - entries + 1
					}
					for k := lo; k <= c; k++ {
						if _, ok := tlb.Lookup(x, k); ok {
							t.Errorf("mixed=%v: insert %d completed before FlushASID began but still hits", mixed, k)
							return
						}
					}
				}
			}()
		}
		flushers.Wait()
		close(stop)
		inserter.Wait()
	}
}

// TestTLBOverlappingFlushes starts two flushes of the same ASID at once.
// Only one of them resets the summary and scans; the other must still not
// return while the entry, in the slot a scan reaches last, can hit.
func TestTLBOverlappingFlushes(t *testing.T) {
	const x, rounds = 9, 2000
	tlb := NewTLB(DefaultTLBEntries)
	last := uint64(tlb.Size() - 1)
	for r := 0; r < rounds; r++ {
		tlb.Insert(x, last, 1)
		start := make(chan struct{})
		var stale atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				tlb.FlushASID(x)
				if _, ok := tlb.Lookup(x, last); ok {
					stale.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if stale.Load() != 0 {
			t.Fatalf("round %d: a FlushASID returned while its ASID's entry still hit", r)
		}
	}
}
