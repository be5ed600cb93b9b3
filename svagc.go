package svagc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Re-exported core types. The facade keeps downstream code to one import
// while the implementation stays organised in focused internal packages.
type (
	// CostModel holds a simulated machine's latency/bandwidth parameters.
	CostModel = sim.CostModel
	// Machine is the simulated multi-core computer.
	Machine = machine.Machine
	// AllocSpec describes an allocation request.
	AllocSpec = heap.AllocSpec
	// JVM is a managed runtime instance.
	JVM = jvm.JVM
	// Workload is one Table II benchmark configuration.
	Workload = workloads.Spec
)

// Collector preset names.
const (
	CollectorSVAGC     = jvm.CollectorSVAGC
	CollectorSVAGCBase = jvm.CollectorSVAGCBase
	CollectorParallel  = jvm.CollectorParallel
	CollectorShen      = jvm.CollectorShen
)

// XeonGold6130 is the paper's main testbed (32 cores).
func XeonGold6130() *CostModel { return sim.XeonGold6130() }

// XeonGold6240 is the second threshold-calibration machine (Fig. 10b).
func XeonGold6240() *CostModel { return sim.XeonGold6240() }

// XeonGold6130NVM is the Gold 6130 with an NVM heap: byte copies pay
// the store penalty and PTE swaps do not.
func XeonGold6130NVM() *CostModel { return sim.XeonGold6130NVM() }

// NewMachine builds a simulated machine with default cache/TLB geometry.
func NewMachine(cost *CostModel) *Machine {
	return machine.MustNew(machine.Config{Cost: cost})
}

// JVMConfig describes a runtime to build via NewJVM.
type JVMConfig struct {
	// HeapBytes is the heap capacity.
	HeapBytes int64
	// Collector is a preset name (CollectorSVAGC, ...); default SVAGC.
	Collector string
	// Threads is the mutator thread count (default 1).
	Threads int
}

// NewJVM builds a managed runtime on m with a preset collector and four
// GC workers.
func NewJVM(m *Machine, cfg JVMConfig) (*JVM, error) {
	name := cfg.Collector
	if name == "" {
		name = CollectorSVAGC
	}
	jc, ok := jvm.ConfigFor(name, cfg.HeapBytes, cfg.Threads, 4)
	if !ok {
		return nil, fmt.Errorf("svagc: unknown collector preset %s", name)
	}
	return jvm.New(m, jc)
}

// WorkloadByName finds one Table II benchmark.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// BreakEvenPages calibrates the SwapVA/memmove crossover for a machine.
func BreakEvenPages(cost *CostModel, maxPages int) (int, error) {
	newMachine := func() (*Machine, error) { return machine.New(machine.Config{Cost: cost}) }
	return core.BreakEvenPages(newMachine, nil, maxPages)
}
