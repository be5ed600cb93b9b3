package mmu

import (
	"math/rand"
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
					seed, op, asid, vpn, gf, gok, wf, wok, tlb.live)
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
	if got := tlb.live; got != 0 {
		t.Fatalf("fresh TLB live = %#x, want 0", got)
	}
	tlb.Insert(3, 10, 1)
	if got := tlb.live; got != 4 {
		t.Fatalf("after one ASID live = %#x, want 4", got)
	}
	tlb.FlushASID(5) // another ASID: nothing to do, summary kept
	if got := tlb.live; got != 4 {
		t.Fatalf("foreign flush changed live to %#x", got)
	}
	tlb.FlushASID(3)
	if got := tlb.live; got != 0 {
		t.Fatalf("emptying flush left live = %#x", got)
	}
	tlb.Insert(3, 10, 1)
	tlb.Insert(5, 11, 2)
	tlb.FlushASID(3)
	tlb.FlushASID(5)
	if got := tlb.live; got != tlbMixed {
		t.Fatalf("mixed summary not sticky: live = %#x", got)
	}
	tlb.Insert(5, 11, 2)
	tlb.FlushAll()
	if got := tlb.live; got != 0 {
		t.Fatalf("FlushAll left live = %#x", got)
	}
	if _, ok := tlb.Lookup(5, 11); ok {
		t.Fatal("FlushAll left an entry")
	}
}
