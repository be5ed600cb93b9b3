// Package svagc is the public facade of the SVAGC reproduction: garbage
// collection with a scalable virtual-address swapping technique (Ataie &
// Yu, IEEE CLUSTER 2022), rebuilt from scratch in Go on a simulated
// machine.
//
// The package re-exports the pieces a downstream user needs to build a
// simulated machine, run a managed heap under one of the collector
// presets (SVAGC, its memmove baseline, a ParallelGC-like generational
// collector, a Shenandoah-like concurrent collector, and the SwapVA
// extensions of the latter two), execute the paper's Table II workloads,
// and calibrate the swapping threshold. The gcbench command regenerates
// every figure and table of the paper's evaluation.
//
// Quick start:
//
//	m := svagc.NewMachine(svagc.XeonGold6130())
//	vm, err := svagc.NewJVM(m, svagc.JVMConfig{
//		HeapBytes: 64 << 20,
//		Collector: svagc.CollectorSVAGC,
//	})
//	th := vm.Thread(0)
//	obj, err := th.Alloc(svagc.AllocSpec{Payload: 1 << 20})
//	...
//	pause, err := vm.CollectNow()
//
// The package's Examples are complete programs with their output
// pinned. See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured comparison.
package svagc
