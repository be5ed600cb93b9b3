package svagc_test

import (
	"fmt"
	"log"

	svagc "repro"
)

// Example builds a simulated Xeon, runs a JVM under SVAGC, allocates a
// mix of small and large (swappable) objects, forces a full collection,
// and watches SwapVA relocate the large objects without copying a byte;
// then it does the same with the memmove baseline and compares pauses.
func Example() {
	swap := compactLargeObjects(svagc.CollectorSVAGC)
	move := compactLargeObjects(svagc.CollectorSVAGCBase)
	swapPerf, movePerf := swap.TotalPerf(), move.TotalPerf()

	fmt.Println("Full-GC pause compacting ~12 MiB of surviving large objects:")
	fmt.Printf("  SVAGC (SwapVA):   %v  — %d pages remapped, %d bytes copied\n",
		swap.GCPauseTime(), swapPerf.PagesSwapped, swapPerf.BytesCopied)
	fmt.Printf("  memmove baseline: %v  — %d pages remapped, %d bytes copied\n",
		move.GCPauseTime(), movePerf.PagesSwapped, movePerf.BytesCopied)
	fmt.Printf("  speedup: %.1fx\n", float64(move.GCPauseTime())/float64(swap.GCPauseTime()))
	// Output:
	// Full-GC pause compacting ~12 MiB of surviving large objects:
	//   SVAGC (SwapVA):   156.810us  — 3084 pages remapped, 0 bytes copied
	//   memmove baseline: 1.862ms  — 0 pages remapped, 12583200 bytes copied
	//   speedup: 11.9x
}

// compactLargeObjects runs one JVM under collector on a fresh Gold 6130:
// it allocates alternating small nodes and 1 MiB arrays, drops every
// other array so compaction has holes to close, and forces the one full
// collection of the run.
func compactLargeObjects(collector string) *svagc.JVM {
	m := svagc.NewMachine(svagc.XeonGold6130())
	vm, err := svagc.NewJVM(m, svagc.JVMConfig{HeapBytes: 64 << 20, Collector: collector})
	if err != nil {
		log.Fatal(err)
	}
	th := vm.Thread(0)
	var drop []func()
	for i := 0; i < 24; i++ {
		if _, err := th.AllocRooted(svagc.AllocSpec{NumRefs: 2, Payload: 64}); err != nil {
			log.Fatal(err)
		}
		big, err := th.AllocRooted(svagc.AllocSpec{Payload: 1 << 20, Class: 7})
		if err != nil {
			log.Fatal(err)
		}
		if i%2 == 0 {
			drop = append(drop, func() { vm.Roots.Remove(big) })
		}
	}
	for _, f := range drop {
		f()
	}
	if _, err := vm.CollectNow(); err != nil {
		log.Fatal(err)
	}
	return vm
}

// Example_spmv drives the sparse matrix-vector workload (CSR value
// blocks around 200 KB, prime SwapVA material) under all four
// collectors at 1.2x minimum heap: the Sparse.large slice of Figs.
// 11, 12 and 16, in the paper's order.
func Example_spmv() {
	spec, err := svagc.WorkloadByName("Sparse.large")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d threads, %.1f MiB min heap (paper: %d threads, %s)\n\n",
		spec.Name, spec.Threads, float64(spec.MinHeapBytes)/(1<<20),
		spec.PaperThreads, spec.PaperHeap)
	fmt.Printf("%-14s  %8s  %12s  %12s  %12s\n",
		"collector", "gcs", "gc-total", "max-pause", "app-time")
	for _, collector := range []string{
		svagc.CollectorShen, svagc.CollectorParallel,
		svagc.CollectorSVAGCBase, svagc.CollectorSVAGC,
	} {
		m := svagc.NewMachine(svagc.XeonGold6130())
		vm, err := svagc.NewJVM(m, svagc.JVMConfig{
			HeapBytes: spec.MinHeap(1.2),
			Collector: collector,
			Threads:   spec.Threads,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.Run(vm, 42); err != nil {
			log.Fatal(err)
		}
		st := vm.GC.Stats()
		fmt.Printf("%-14s  %8d  %12v  %12v  %12v\n",
			collector, len(st.Pauses), st.TotalPause(""), st.MaxPause(""), vm.AppTime())
	}
	// Output:
	// Sparse.large: 6 threads, 12.5 MiB min heap (paper: 576 threads, 5 - 8.5 GiB)
	//
	// collector            gcs      gc-total     max-pause      app-time
	// shenandoah             2       3.032ms       1.748ms      10.946ms
	// parallelgc             6       1.643ms     530.095us       9.511ms
	// svagc-memmove          2     927.606us     534.468us       8.839ms
	// svagc                  2     250.202us     134.905us       8.140ms
}

// Example_multiJVM runs three JVMs, each with its own workload and
// collector, on one simulated machine, and reports per-JVM GC and
// application time plus the machine-wide TLB shootdowns. Thanks to
// Algorithm 4's pinning, each SVAGC full GC costs at most two broadcasts
// (16 for the ten here); an unpinned SwapVA would broadcast once per
// moved object.
func Example_multiJVM() {
	m := svagc.NewMachine(svagc.XeonGold6130())
	tenants := []struct{ bench, collector string }{
		{"Sigverify", svagc.CollectorSVAGC},
		{"CryptoAES", svagc.CollectorSVAGC},
		{"Compress", svagc.CollectorParallel},
	}
	fmt.Printf("%d JVMs sharing one %s (%d cores):\n\n",
		len(tenants), m.Cost.Name, m.NumCores())
	fmt.Printf("%-12s  %-12s  %6s  %12s  %12s  %10s\n",
		"benchmark", "collector", "gcs", "gc-total", "app-time", "ipis")
	for _, tn := range tenants {
		spec, err := svagc.WorkloadByName(tn.bench)
		if err != nil {
			log.Fatal(err)
		}
		vm, err := svagc.NewJVM(m, svagc.JVMConfig{
			HeapBytes: spec.MinHeap(1.3),
			Collector: tn.collector,
			Threads:   spec.Threads,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.Run(vm, 42); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  %-12s  %6d  %12v  %12v  %10d\n",
			tn.bench, tn.collector, len(vm.GC.Stats().Pauses),
			vm.GCPauseTime(), vm.AppTime(), vm.TotalPerf().IPIsSent)
	}
	fmt.Printf("\nmachine-wide TLB shootdown broadcasts: %d\n", m.Shootdowns())
	// Output:
	// 3 JVMs sharing one XeonGold6130 (32 cores):
	//
	// benchmark     collector        gcs      gc-total      app-time        ipis
	// Sigverify     svagc              3     259.882us      27.722ms         186
	// CryptoAES     svagc              7     311.372us       4.920ms         310
	// Compress      parallelgc        22     957.540us       6.694ms           0
	//
	// machine-wide TLB shootdown broadcasts: 16
}

// ExampleBreakEvenPages calibrates Threshold_Swapping (the paper's
// Fig. 10) on three machine models. On the NVM variant the break-even
// drops, because byte copies pay the store penalty and PTE swaps do
// not. fig10 prints the per-page sweeps behind the first two lines.
func ExampleBreakEvenPages() {
	for _, cm := range []*svagc.CostModel{
		svagc.XeonGold6130(), svagc.XeonGold6240(), svagc.XeonGold6130NVM(),
	} {
		pages, err := svagc.BreakEvenPages(cm, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: SwapVA beats memmove from %d pages (%d KiB objects)\n",
			cm.Name, pages, pages*4)
	}
	// Output:
	// XeonGold6130: SwapVA beats memmove from 10 pages (40 KiB objects)
	// XeonGold6240: SwapVA beats memmove from 8 pages (32 KiB objects)
	// XeonGold6130+NVM: SwapVA beats memmove from 5 pages (20 KiB objects)
}
