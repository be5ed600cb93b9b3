package svagc

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Re-exported core types. The facade keeps downstream code to one import
// while the implementation stays organised in focused internal packages.
type (
	// CostModel holds a simulated machine's latency/bandwidth parameters.
	CostModel = sim.CostModel
	// Time is a simulated duration in nanoseconds.
	Time = sim.Time
	// Perf carries perf(1)-style event counters.
	Perf = sim.Perf
	// Machine is the simulated multi-core computer.
	Machine = machine.Machine
	// Context is one simulated thread of execution.
	Context = machine.Context
	// Kernel exposes the simulated OS (SwapVA, memmove).
	Kernel = kernel.Kernel
	// SwapOptions configures a SwapVA invocation.
	SwapOptions = kernel.Options
	// AddressSpace is a simulated process address space.
	AddressSpace = mmu.AddressSpace
	// Heap is the managed object heap.
	Heap = heap.Heap
	// AllocSpec describes an allocation request.
	AllocSpec = heap.AllocSpec
	// Object references a heap object.
	Object = heap.Object
	// MovePolicy routes object moves between SwapVA and memmove.
	MovePolicy = core.MovePolicy
	// Collector is the garbage-collector interface.
	Collector = gc.Collector
	// PauseInfo records one stop-the-world pause.
	PauseInfo = gc.PauseInfo
	// GCStats accumulates a collector's pause history.
	GCStats = gc.Stats
	// JVM is a managed runtime instance.
	JVM = jvm.JVM
	// Thread is one mutator thread of a JVM.
	Thread = jvm.Thread
	// Workload is one Table II benchmark configuration.
	Workload = workloads.Spec
	// Experiment regenerates one paper figure or table.
	Experiment = bench.Experiment
	// ExperimentOptions configures an experiment run.
	ExperimentOptions = bench.Options
	// ExperimentResult is a rendered experiment table.
	ExperimentResult = bench.Result
)

// Collector preset names.
const (
	CollectorSVAGC     = jvm.CollectorSVAGC
	CollectorSVAGCBase = jvm.CollectorSVAGCBase
	CollectorParallel  = jvm.CollectorParallel
	CollectorShen      = jvm.CollectorShen
)

// DefaultThresholdPages is the paper's ten-page swapping threshold.
const DefaultThresholdPages = core.DefaultThresholdPages

// Machine configurations matching the paper's testbeds.
func XeonGold6130() *CostModel { return sim.XeonGold6130() }

// XeonGold6240 is the second threshold-calibration machine (Fig. 10b).
func XeonGold6240() *CostModel { return sim.XeonGold6240() }

// CoreI5_7600 is the paper's single-socket microbenchmark machine.
func CoreI5_7600() *CostModel { return sim.CoreI5_7600() }

// NewMachine builds a simulated machine with default cache/TLB geometry.
func NewMachine(cost *CostModel) *Machine {
	return machine.MustNew(machine.Config{Cost: cost})
}

// NewKernel builds the simulated OS over a machine.
func NewKernel(m *Machine) *Kernel { return kernel.New(m) }

// JVMConfig describes a runtime to build via NewJVM.
type JVMConfig struct {
	// HeapBytes is the heap capacity.
	HeapBytes int64
	// Collector is a preset name (CollectorSVAGC, ...); default SVAGC.
	Collector string
	// Threads is the mutator thread count (default 1).
	Threads int
	// GCWorkers is the collector's worker count (default 4).
	GCWorkers int
}

// NewJVM builds a managed runtime on m with a preset collector.
func NewJVM(m *Machine, cfg JVMConfig) (*JVM, error) {
	name := cfg.Collector
	if name == "" {
		name = CollectorSVAGC
	}
	workers := cfg.GCWorkers
	if workers <= 0 {
		workers = 4
	}
	jc, ok := jvm.ConfigFor(name, cfg.HeapBytes, cfg.Threads, workers)
	if !ok {
		return nil, errUnknownCollector(name)
	}
	return jvm.New(m, jc)
}

type errUnknownCollector string

func (e errUnknownCollector) Error() string {
	return "svagc: unknown collector preset " + string(e)
}

// Workloads returns the Table II benchmark registry.
func Workloads() []*Workload { return workloads.Registry() }

// WorkloadByName finds one benchmark.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Experiments returns every paper figure/table regenerator.
func Experiments() []*Experiment { return bench.Registry() }

// ExperimentByID finds one experiment (e.g. "fig11").
func ExperimentByID(id string) (*Experiment, error) { return bench.ByID(id) }

// DefaultPolicy returns the SVAGC move policy (SwapVA at the ten-page
// threshold with every optimisation enabled).
func DefaultPolicy() MovePolicy { return core.DefaultPolicy() }

// MemmovePolicy returns the baseline policy that never swaps.
func MemmovePolicy() MovePolicy { return core.MemmovePolicy() }

// BreakEvenPages calibrates the SwapVA/memmove crossover for a machine.
func BreakEvenPages(cost *CostModel, maxPages int) (int, error) {
	newMachine := func() (*Machine, error) { return machine.New(machine.Config{Cost: cost}) }
	return core.BreakEvenPages(newMachine, nil, maxPages)
}
