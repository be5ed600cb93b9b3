package sim

import "fmt"

// CostModel holds the latency and bandwidth parameters of a simulated
// machine. All subsystems charge simulated time through these parameters,
// so a CostModel instance fully determines the performance behaviour of a
// configuration. The three predefined models mirror the paper's testbeds.
type CostModel struct {
	Name string

	// CPU.
	Cores  int     // online cores (IPI broadcast fan-out)
	CPUGHz float64 // core frequency; used by CyclesNs

	// Memory hierarchy.
	CacheHitNs    Time    // load/store that hits the simulated LLC
	DRAMAccessNs  Time    // load/store that misses the LLC (random access)
	StreamBWGBs   float64 // peak per-stream sequential copy bandwidth, GB/s
	TotalBWGBs    float64 // aggregate memory bandwidth across all channels
	MemChannels   int     // streams that fit before contention kicks in
	CacheLineSize int     // bytes per line, for bulk-transfer accounting

	// Address translation.
	TLBHitNs      Time // translation served by the TLB
	PTWalkLevelNs Time // one page-table level access during a cold walk
	PTECachedNs   Time // PTE access when the PMD cache short-circuits the walk (the table's line is hot)
	PTELockNs     Time // acquiring/releasing one PTE-table spinlock pair
	PTEUpdateNs   Time // writing one PTE

	// Kernel entry and TLB coherence.
	SyscallNs       Time // user→kernel→user round trip
	TLBFlushLocalNs Time // flushing the calling core's TLB (one ASID)
	TLBFlushPageNs  Time // invlpg-style single-page local invalidation
	IPIBaseNs       Time // initiating an IPI broadcast
	IPIPerCoreNs    Time // per-target cost of a shootdown broadcast (send+ack)
	IPIHandlerNs    Time // work done on each receiving core

	// Pinning (sched_setaffinity-style) used by the optimised compaction.
	PinNs Time

	// Multi-socket (NUMA) parameters, read only when the machine is built
	// with more than one socket; a flat machine never consults them. Zero
	// values let the topology layer derive defaults from the flat figures
	// (see topology.New).
	InterconnectGBs     float64 // per-direction UPI-class link bandwidth, GB/s
	InterconnectLatNs   Time    // extra latency of one remote DRAM access
	InterconnectStreams int     // streams the link carries before contention
	IPIPerCoreRemoteNs  Time    // per-target shootdown cost to a remote-socket core

	// NVMWriteMult models a non-volatile main memory (the paper's §VI
	// hybrid-memory outlook): store traffic costs this multiple of the
	// DRAM figures (both latency-bound stores and streaming writes).
	// 0 or 1 means ordinary DRAM.
	NVMWriteMult float64
}

// WriteMult returns the effective store-cost multiplier (>= 1).
func (cm *CostModel) WriteMult() float64 {
	if cm.NVMWriteMult <= 1 {
		return 1
	}
	return cm.NVMWriteMult
}

// Validate reports an error if the model is not internally usable.
func (cm *CostModel) Validate() error {
	switch {
	case cm.Cores <= 0:
		return fmt.Errorf("sim: cost model %q: Cores must be positive, got %d", cm.Name, cm.Cores)
	case cm.CPUGHz <= 0:
		return fmt.Errorf("sim: cost model %q: CPUGHz must be positive", cm.Name)
	case cm.StreamBWGBs <= 0 || cm.TotalBWGBs <= 0:
		return fmt.Errorf("sim: cost model %q: bandwidths must be positive", cm.Name)
	case cm.MemChannels <= 0:
		return fmt.Errorf("sim: cost model %q: MemChannels must be positive", cm.Name)
	case cm.CacheLineSize <= 0 || cm.CacheLineSize&(cm.CacheLineSize-1) != 0:
		return fmt.Errorf("sim: cost model %q: CacheLineSize must be a positive power of two", cm.Name)
	case !inTicksRange(cm.TLBHitNs) || !inTicksRange(cm.CacheHitNs) || !inTicksRange(cm.WalkNs()):
		return fmt.Errorf("sim: cost model %q: TLBHitNs, CacheHitNs and 4*PTWalkLevelNs must lie in [0, 2^31) ns", cm.Name)
	}
	return nil
}

// CyclesNs converts a CPU-cycle count to simulated time.
func (cm *CostModel) CyclesNs(cycles float64) Time {
	return Time(cycles / cm.CPUGHz)
}

// CopyNs returns the time to stream n bytes at the given effective
// bandwidth in GB/s (1 GB/s = 1 byte/ns).
func CopyNs(n int, gbs float64) Time {
	return Time(float64(n) / gbs)
}

// WalkNs returns the cost of a full page-table walk (PGD→PUD→PMD→PTE,
// with the p4d level folded as on 4-level x86-64).
func (cm *CostModel) WalkNs() Time { return 4 * cm.PTWalkLevelNs }

// ShootdownNs returns the cost, charged to the initiating core, of an IPI
// TLB-shootdown broadcast to the other (Cores-1) online cores: initiating
// the multicast plus collecting per-core acknowledgements.
func (cm *CostModel) ShootdownNs() Time {
	if cm.Cores <= 1 {
		return 0
	}
	return cm.IPIBaseNs + Time(cm.Cores-1)*cm.IPIPerCoreNs
}

// The predefined machine configurations. Latency parameters are plausible
// published figures for the respective parts; the reproduction depends only
// on their ratios (copy bandwidth vs walk/flush/syscall costs), which set
// the SwapVA break-even threshold near the paper's ten pages.

// XeonGold6130 models the paper's main testbed: dual Intel Xeon Gold 6130
// (32 cores total) with DDR4-2666.
func XeonGold6130() *CostModel {
	return &CostModel{
		Name:            "XeonGold6130",
		Cores:           32,
		CPUGHz:          2.1,
		CacheHitNs:      6,
		DRAMAccessNs:    90,
		StreamBWGBs:     12.0,
		TotalBWGBs:      34.0, // practical aggregate copy bandwidth
		MemChannels:     2,    // streams before bandwidth saturation sets in
		CacheLineSize:   64,
		TLBHitNs:        0.5,
		PTWalkLevelNs:   28,
		PTECachedNs:     6,
		PTELockNs:       6,
		PTEUpdateNs:     4,
		SyscallNs:       1400,
		TLBFlushLocalNs: 380,
		TLBFlushPageNs:  110,
		IPIBaseNs:       1000,
		IPIPerCoreNs:    160,
		IPIHandlerNs:    450,
		PinNs:           900,

		// Dual-socket UPI figures (the 6130 is a 2 x 16-core part): one
		// 10.4 GT/s link per direction, remote DRAM roughly 1.7x local.
		InterconnectGBs:     18.0,
		InterconnectLatNs:   65,
		InterconnectStreams: 2,
		IPIPerCoreRemoteNs:  420,
	}
}

// XeonGold6240 models the paper's second threshold-calibration machine:
// Xeon Gold 6240 at 2.6 GHz with DDR4-2933 (Fig. 10b).
func XeonGold6240() *CostModel {
	return &CostModel{
		Name:            "XeonGold6240",
		Cores:           36,
		CPUGHz:          2.6,
		CacheHitNs:      5,
		DRAMAccessNs:    82,
		StreamBWGBs:     13.2,
		TotalBWGBs:      37.0,
		MemChannels:     2,
		CacheLineSize:   64,
		TLBHitNs:        0.4,
		PTWalkLevelNs:   23,
		PTECachedNs:     5,
		PTELockNs:       5,
		PTEUpdateNs:     3,
		SyscallNs:       1150,
		TLBFlushLocalNs: 310,
		TLBFlushPageNs:  90,
		IPIBaseNs:       820,
		IPIPerCoreNs:    100,
		IPIHandlerNs:    370,
		PinNs:           750,

		// Dual-socket UPI figures (2 x 18-core, 10.4 GT/s links).
		InterconnectGBs:     20.0,
		InterconnectLatNs:   58,
		InterconnectStreams: 2,
		IPIPerCoreRemoteNs:  280,
	}
}

// CoreI5_7600 models the paper's single-socket microbenchmark machine:
// Intel Core i5-7600 (4 cores, 3.5 GHz) with DDR4-2400 (Figs. 1, 6, 8).
func CoreI5_7600() *CostModel {
	return &CostModel{
		Name:            "CoreI5-7600",
		Cores:           4,
		CPUGHz:          3.5,
		CacheHitNs:      4,
		DRAMAccessNs:    75,
		StreamBWGBs:     11.0,
		TotalBWGBs:      18.0,
		MemChannels:     2,
		CacheLineSize:   64,
		TLBHitNs:        0.3,
		PTWalkLevelNs:   20,
		PTECachedNs:     4,
		PTELockNs:       5,
		PTEUpdateNs:     3,
		SyscallNs:       900,
		TLBFlushLocalNs: 260,
		TLBFlushPageNs:  75,
		IPIBaseNs:       650,
		IPIPerCoreNs:    65,
		IPIHandlerNs:    300,
		PinNs:           600,
	}
}

// XeonGold6130NVM is the Gold 6130 with its DRAM replaced by Optane-class
// non-volatile memory: stores cost four times their DRAM equivalents.
// Used by the hybrid-memory extension experiment (paper §VI: "GC
// implementations may increase their performance by replacing costly
// write operations of NVMs with our zero-copying ones").
func XeonGold6130NVM() *CostModel {
	cm := XeonGold6130()
	cm.Name = "XeonGold6130+NVM"
	cm.NVMWriteMult = 4
	return cm
}

// ModelByName returns the predefined cost model with the given name, or an
// error listing the known names.
func ModelByName(name string) (*CostModel, error) {
	switch name {
	case "XeonGold6130", "gold6130", "6130":
		return XeonGold6130(), nil
	case "XeonGold6240", "gold6240", "6240":
		return XeonGold6240(), nil
	case "CoreI5-7600", "i5-7600", "i5":
		return CoreI5_7600(), nil
	case "XeonGold6130+NVM", "gold6130-nvm", "nvm":
		return XeonGold6130NVM(), nil
	}
	return nil, fmt.Errorf("sim: unknown cost model %q (want gold6130, gold6240, i5-7600, or gold6130-nvm)", name)
}
