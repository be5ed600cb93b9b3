package svagc_test

import (
	"testing"

	svagc "repro"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	m := svagc.NewMachine(svagc.XeonGold6130())
	vm, err := svagc.NewJVM(m, svagc.JVMConfig{HeapBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th := vm.Thread(0)
	r, err := th.AllocRooted(svagc.AllocSpec{Payload: 1 << 20, Class: 3})
	if err != nil {
		t.Fatal(err)
	}
	garbage, err := th.AllocRooted(svagc.AllocSpec{Payload: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	vm.Roots.Remove(garbage)
	pause, err := vm.CollectNow()
	if err != nil {
		t.Fatal(err)
	}
	if pause.LiveObjects != 1 {
		t.Errorf("live objects = %d", pause.LiveObjects)
	}
	meta, err := vm.Heap.ReadMeta(th.Ctx, r.Obj)
	if err != nil || meta.Class != 3 {
		t.Errorf("survivor meta %+v err %v", meta, err)
	}
	if vm.GC.Name() != svagc.CollectorSVAGC {
		t.Errorf("default collector %q, want %q", vm.GC.Name(), svagc.CollectorSVAGC)
	}
}

func TestFacadeCollectorPresets(t *testing.T) {
	m := svagc.NewMachine(svagc.XeonGold6130())
	for _, name := range []string{
		svagc.CollectorSVAGC, svagc.CollectorSVAGCBase,
		svagc.CollectorParallel, svagc.CollectorShen,
	} {
		vm, err := svagc.NewJVM(m, svagc.JVMConfig{HeapBytes: 4 << 20, Collector: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vm.GC.Name() != name {
			t.Errorf("collector %q, want %q", vm.GC.Name(), name)
		}
	}
	_, err := svagc.NewJVM(m, svagc.JVMConfig{HeapBytes: 1 << 20, Collector: "zgc"})
	if err == nil || err.Error() != "svagc: unknown collector preset zgc" {
		t.Errorf("unknown preset: err = %v", err)
	}
}
