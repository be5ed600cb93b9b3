package jvm

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

func testMachine() *machine.Machine {
	return machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
}

// svagcConfig is the SVAGC preset at the given sizes.
func svagcConfig(heapBytes int64, threads, gcWorkers int) Config {
	cfg, _ := ConfigFor(CollectorSVAGC, heapBytes, threads, gcWorkers)
	return cfg
}

func TestNewValidation(t *testing.T) {
	m := testMachine()
	if _, err := New(m, Config{HeapBytes: 1 << 20}); err == nil {
		t.Error("missing collector factory accepted")
	}
	cfg := svagcConfig(0, 1, 4)
	if _, err := New(m, cfg); err == nil {
		t.Error("zero heap accepted")
	}
}

// TestNewBacksNoHeapPages: mapping a heap gives its frames no host
// pages of their own, since untouched frames share one zero page, so
// building a JVM with a 32 MiB heap allocates under 1 MiB of Go heap.
func TestNewBacksNoHeapPages(t *testing.T) {
	m := testMachine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, err := New(m, svagcConfig(32<<20, 1, 4))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("jvm.New of a 32 MiB heap allocated %d bytes, want under 1 MiB", got)
	}
	runtime.KeepAlive(j)
}

func TestAllocTriggersGCAndRecovers(t *testing.T) {
	m := testMachine()
	j, err := New(m, svagcConfig(4<<20, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	// Churn garbage far beyond heap capacity; GC must keep it alive.
	var keep *gc.Root
	for i := 0; i < 400; i++ {
		r, err := th.AllocRooted(heap.AllocSpec{Payload: 64 << 10, Class: 1})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if keep != nil {
			j.Roots.Remove(keep) // previous becomes garbage
		}
		keep = r
	}
	if j.GCCount("") == 0 {
		t.Error("no collections despite 25x heap churn")
	}
	if j.GCPauseTime() <= 0 {
		t.Error("no pause time recorded")
	}
}

func TestAllocOOMOnLiveOverflow(t *testing.T) {
	m := testMachine()
	j, err := New(m, svagcConfig(2<<20, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	var allocErr error
	for i := 0; i < 100; i++ {
		// Everything stays rooted: the heap must eventually overflow.
		if _, allocErr = th.AllocRooted(heap.AllocSpec{Payload: 128 << 10}); allocErr != nil {
			break
		}
	}
	if allocErr == nil || !strings.Contains(allocErr.Error(), "OutOfMemory") {
		t.Fatalf("expected OutOfMemory, got %v", allocErr)
	}
}

func TestThreadsGetDistinctContexts(t *testing.T) {
	m := testMachine()
	j, err := New(m, svagcConfig(8<<20, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if j.Threads() != 4 {
		t.Fatalf("threads = %d", j.Threads())
	}
	seen := map[*machine.Context]bool{}
	for i := 0; i < 4; i++ {
		th := j.Thread(i)
		if th.ID != i || seen[th.Ctx] {
			t.Errorf("thread %d context wrong", i)
		}
		seen[th.Ctx] = true
	}
}

func TestAccountingSeparatesGCFromMutator(t *testing.T) {
	m := testMachine()
	j, _ := New(m, svagcConfig(8<<20, 1, 4))
	th := j.Thread(0)
	for i := 0; i < 10; i++ {
		r, err := th.AllocRooted(heap.AllocSpec{Payload: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		j.Roots.Remove(r)
	}
	mutBefore := j.MutatorTime()
	if _, err := j.CollectNow(); err != nil {
		t.Fatal(err)
	}
	if j.MutatorTime() != mutBefore {
		t.Error("explicit GC advanced the mutator clock")
	}
	if j.GCPauseTime() <= 0 {
		t.Error("pause not accounted")
	}
	if j.AppTime() != j.MutatorTime()+j.GCPauseTime()+j.GCConcurrentTime() {
		t.Error("AppTime identity broken")
	}
}

func TestTotalPerfAggregates(t *testing.T) {
	m := testMachine()
	j, _ := New(m, svagcConfig(8<<20, 2, 4))
	for i := 0; i < 2; i++ {
		if _, err := j.Thread(i).AllocRooted(heap.AllocSpec{Payload: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	j.CollectNow()
	p := j.TotalPerf()
	if p.CacheRefs == 0 || p.TLBLookups == 0 {
		t.Errorf("perf not aggregated: %+v", p)
	}
}

func TestAllPresetsRun(t *testing.T) {
	for _, name := range CollectorNames() {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			cfg, ok := ConfigFor(name, 3<<20, 1, 4)
			if !ok {
				t.Fatalf("unknown preset %q", name)
			}
			j, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if j.GC.Name() != name {
				t.Errorf("collector name %q, want %q", j.GC.Name(), name)
			}
			th := j.Thread(0)
			var prev *gc.Root
			for i := 0; i < 200; i++ {
				size := 16 << 10
				if i%4 == 0 {
					size = 12 * mem.PageSize
				}
				r, err := th.AllocRooted(heap.AllocSpec{Payload: size, Class: uint16(i % 5)})
				if err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
				if prev != nil {
					j.Roots.Remove(prev)
				}
				prev = r
			}
			if j.GCCount("") == 0 {
				t.Error("no GC under churn")
			}
			if err := th.TLAB.Retire(j.Heap, th.Ctx); err != nil {
				t.Fatal(err)
			}
			if err := j.Heap.VerifyWalkable(); err != nil {
				t.Error(err)
			}
		})
	}
	if _, ok := ConfigFor("zgc", 1<<20, 1, 1); ok {
		t.Error("unknown preset accepted")
	}
}

func TestSVAGCPresetSwapsParallelDoesNot(t *testing.T) {
	run := func(name string) sim.Perf {
		m := testMachine()
		cfg, _ := ConfigFor(name, 8<<20, 1, 4)
		j, _ := New(m, cfg)
		th := j.Thread(0)
		var prev *gc.Root
		for i := 0; i < 60; i++ {
			r, err := th.AllocRooted(heap.AllocSpec{Payload: 15 * mem.PageSize})
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && i%2 == 0 {
				j.Roots.Remove(prev)
			}
			prev = r
		}
		j.CollectNow()
		return j.TotalPerf()
	}
	if p := run(CollectorSVAGC); p.PagesSwapped == 0 {
		t.Error("svagc preset never swapped")
	}
	if p := run(CollectorParallel); p.PagesSwapped != 0 {
		t.Error("parallelgc preset swapped pages")
	}
}
