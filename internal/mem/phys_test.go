package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAllocFrameBasics(t *testing.T) {
	pm := NewPhysMem(0)
	f1, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f1 == NilFrame || f2 == NilFrame || f1 == f2 {
		t.Fatalf("bad frame ids %d %d", f1, f2)
	}
	if pm.FramesInUse() != 2 {
		t.Errorf("FramesInUse = %d, want 2", pm.FramesInUse())
	}
	pm.Frame(f1)[0] = 0xAB
	if pm.Frame(f2)[0] != 0 {
		t.Error("frames share storage")
	}
}

// TestFramePanicsOnInvalidID: Frame or View of NilFrame or of an ID past
// the frame table is a translation bug and panics with the frame named,
// from the out-of-line helper that lets both accessors inline.
func TestFramePanicsOnInvalidID(t *testing.T) {
	pm := NewPhysMem(0)
	f, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	for name, access := range map[string]func(FrameID) *[PageSize]byte{"Frame": pm.Frame, "View": pm.View} {
		for _, id := range []FrameID{NilFrame, f + 1, f + 1000} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "mem: invalid frame") {
						t.Errorf("%s(%d) panicked with %q, want \"mem: invalid frame ...\"", name, id, msg)
					}
				}()
				access(id)
			}()
		}
	}
}

func TestFrameReuseIsZeroed(t *testing.T) {
	pm := NewPhysMem(0)
	f, _ := pm.AllocFrame()
	pm.Frame(f)[100] = 0xFF
	pm.FreeFrame(f)
	g, _ := pm.AllocFrame()
	if g != f {
		t.Fatalf("free list not reused: got %d, want %d", g, f)
	}
	if pm.Frame(g)[100] != 0 {
		t.Error("reused frame not zeroed")
	}
}

// TestFrameBacking walks one frame through the backing rule in order: a
// new frame is unbacked and reads zero through View, Frame backs it,
// FreeFrame unbacks it, the page it gave back serves the next backing
// cleared after a write of 0xFF, and the shared zero page is still zero.
func TestFrameBacking(t *testing.T) {
	pm := NewPhysMem(0)
	f, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pm.Backed(f) || *pm.View(f) != ([PageSize]byte{}) {
		t.Fatal("new frame is backed or reads nonzero")
	}
	page := pm.Frame(f)
	if !pm.Backed(f) || pm.View(f) != page || page == &zeroFrame {
		t.Fatal("Frame did not back the frame with a page of its own")
	}
	for i := range page {
		page[i] = 0xFF
	}
	pm.FreeFrame(f)
	if pm.Backed(f) || len(pm.spare) != 1 {
		t.Fatalf("FreeFrame left the frame backed (%v) or %d spare pages, want 1", pm.Backed(f), len(pm.spare))
	}
	g, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pm.Backed(g) || *pm.View(g) != ([PageSize]byte{}) {
		t.Fatal("reused frame is backed or reads nonzero")
	}
	if got := pm.Frame(g); got != page || *got != ([PageSize]byte{}) {
		t.Fatalf("backing took a new page (%v) or a spare that reads nonzero", got != page)
	}
	page[7] = 1
	pm.unback(g)
	if pm.Backed(g) || pm.View(g)[7] != 0 || len(pm.spare) != 1 {
		t.Fatal("unback left the frame backed, nonzero or its page off the spare list")
	}
	pm.unback(g) // an unbacked frame stays as it is
	if len(pm.spare) != 1 {
		t.Fatalf("second unback: %d spare pages, want 1", len(pm.spare))
	}
	if zeroFrame != ([PageSize]byte{}) {
		t.Fatal("the shared zero page was written")
	}
}

func TestPhysLimit(t *testing.T) {
	pm := NewPhysMem(3 * PageSize)
	if pm.Limit() != 3 {
		t.Fatalf("Limit = %d, want 3", pm.Limit())
	}
	ids, err := pm.AllocFrames(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocFrame(); err == nil {
		t.Fatal("allocation beyond limit succeeded")
	}
	pm.FreeFrame(ids[0])
	if _, err := pm.AllocFrame(); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestAllocFramesRollsBackOnFailure(t *testing.T) {
	pm := NewPhysMem(2 * PageSize)
	if _, err := pm.AllocFrames(5); err == nil {
		t.Fatal("AllocFrames beyond limit succeeded")
	}
	if pm.FramesInUse() != 0 {
		t.Errorf("partial allocation leaked: %d frames in use", pm.FramesInUse())
	}
	if _, err := pm.AllocFrames(2); err != nil {
		t.Fatalf("full capacity not available after rollback: %v", err)
	}
}

func TestFreeNilFrameIsNoop(t *testing.T) {
	pm := NewPhysMem(0)
	pm.FreeFrame(NilFrame)
	if pm.FramesInUse() != 0 {
		t.Error("FreeFrame(NilFrame) changed accounting")
	}
}

func TestInvalidFramePanics(t *testing.T) {
	pm := NewPhysMem(0)
	for _, id := range []FrameID{NilFrame, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Frame(%d) did not panic", id)
				}
			}()
			pm.Frame(id)
		}()
	}
}

// Property: alloc/free sequences never hand out the same live frame twice.
func TestNoDoubleAllocation(t *testing.T) {
	f := func(ops []bool) bool {
		pm := NewPhysMem(0)
		live := map[FrameID]bool{}
		var order []FrameID
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				id, err := pm.AllocFrame()
				if err != nil {
					return false
				}
				if live[id] {
					return false // double allocation
				}
				live[id] = true
				order = append(order, id)
			} else {
				id := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, id)
				pm.FreeFrame(id)
			}
		}
		return pm.FramesInUse() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
