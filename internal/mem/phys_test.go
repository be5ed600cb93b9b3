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

// TestFramePanicsOnInvalidID: Frame of NilFrame or of an ID past the
// frame table is a translation bug and panics with the frame named, from
// the out-of-line helper that lets Frame inline.
func TestFramePanicsOnInvalidID(t *testing.T) {
	pm := NewPhysMem(0)
	f, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []FrameID{NilFrame, f + 1, f + 1000} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "mem: invalid frame") {
					t.Errorf("Frame(%d) panicked with %q, want \"mem: invalid frame ...\"", id, msg)
				}
			}()
			pm.Frame(id)
		}()
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
