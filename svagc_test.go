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
	var keep []interface{ Remove() }
	_ = keep
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
}

func TestFacadeCollectorPresets(t *testing.T) {
	m := svagc.NewMachine(svagc.CoreI5_7600())
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

func TestFacadeRegistries(t *testing.T) {
	if len(svagc.Workloads()) != 15 {
		t.Errorf("workloads = %d, want 15", len(svagc.Workloads()))
	}
	if len(svagc.Experiments()) != 22 {
		t.Errorf("experiments = %d, want 22", len(svagc.Experiments()))
	}
	if _, err := svagc.WorkloadByName("Sigverify"); err != nil {
		t.Error(err)
	}
	if _, err := svagc.ExperimentByID("fig11"); err != nil {
		t.Error(err)
	}
}

func TestFacadePolicies(t *testing.T) {
	p := svagc.DefaultPolicy()
	if !p.UseSwapVA || p.ThresholdPages != svagc.DefaultThresholdPages {
		t.Errorf("default policy %+v", p)
	}
	if svagc.MemmovePolicy().UseSwapVA {
		t.Error("memmove policy swaps")
	}
	be, err := svagc.BreakEvenPages(svagc.XeonGold6130(), 32)
	if err != nil || be != svagc.DefaultThresholdPages {
		t.Errorf("break-even %d err %v", be, err)
	}
	// Fig. 10b's second calibration machine: the 36-core Gold 6240.
	if m := svagc.NewMachine(svagc.XeonGold6240()); m.Cost.Name != "XeonGold6240" || m.NumCores() != 36 {
		t.Errorf("XeonGold6240 machine: %s with %d cores", m.Cost.Name, m.NumCores())
	}
}

func TestFacadeKernelAccess(t *testing.T) {
	m := svagc.NewMachine(svagc.XeonGold6130())
	k := svagc.NewKernel(m)
	as := m.NewAddressSpace()
	a, err := as.MapRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.MapRegion(4)
	if err != nil {
		t.Fatal(err)
	}
	as.RawWrite(a, []byte{1})
	as.RawWrite(b, []byte{2})
	ctx := m.NewContext(0)
	var opts svagc.SwapOptions
	opts.PMDCaching = true
	if err := k.SwapVA(ctx, as, a, b, 4, opts); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	as.RawRead(a, got)
	if got[0] != 2 {
		t.Error("facade SwapVA did not swap")
	}
}
