package sim

import "fmt"

// Perf collects perf(1)-style event counters for one simulated thread or
// one aggregated run. Counters are plain integers (no atomics) because each
// simulated thread owns its Perf; use Add to aggregate across threads.
type Perf struct {
	// Memory hierarchy.
	CacheRefs   uint64 // LLC references (one per cache line touched)
	CacheMisses uint64 // LLC misses
	BytesRead   uint64
	BytesWrite  uint64

	// Address translation.
	TLBLookups  uint64
	TLBMisses   uint64 // lookups that required a page-table walk
	PTWalks     uint64 // full walks performed
	PTLevelHits uint64 // walk levels skipped thanks to the PMD cache
	// _ holds the place of a retired counter so Perf keeps the binary
	// layout recorded benchmark digests hash (binary.Write writes zeros
	// for blank fields); it goes with the next benchmark change.
	_ uint64

	// Epoch-batched charging (declared access runs and their settlement).
	ChargeRuns   uint64 // runs declared via ChargeRun/ReadRun/WriteRun
	RunWords     uint64 // words covered by declared runs
	RunFallbacks uint64 // runs with words on a swap-armed space; kept only for recorded benchmark digests
	StreamRuns   uint64 // bulk streams declared via ReadWords/WriteWords/ChargeStream
	StreamBytes  uint64 // bytes covered by declared streams

	// TLB coherence.
	TLBFlushLocal uint64 // whole-ASID local flushes
	TLBFlushPage  uint64 // single-page local invalidations
	IPIsSent      uint64 // per-target shootdown interrupts issued
	IPIsRemote    uint64 // of IPIsSent, targets on another socket
	Shootdowns    uint64 // broadcast operations initiated

	// NUMA placement (counted only on multi-socket machines).
	NUMALocal       uint64 // charged accesses resolved to the local node
	NUMARemote      uint64 // charged accesses that crossed the interconnect
	NUMARemoteBytes uint64 // bytes streamed across the interconnect
	CrossNodeSwaps  uint64 // PTE swaps whose two frames sat on different nodes

	// Kernel interface.
	Syscalls     uint64
	SwapVACalls  uint64
	PagesSwapped uint64
	PMDSwaps     uint64 // 2 MiB huge-swap operations (512 pages each)
	MemmoveCalls uint64
	BytesCopied  uint64 // bytes physically moved by Memmove

	// PTE-lock queueing: time spent waiting to acquire a contended
	// PTE-table lock, as opposed to the hold time inside the critical
	// section. Recorded from the tables' busy-until marks, so the counters
	// never advance the clock and zero-config output is unaffected.
	PTELockWaits  uint64 // acquisitions that queued behind a holder
	PTELockWaitNs uint64 // total simulated ns spent queued

	// Fault plane (zero unless an injector is armed).
	FaultsInjected uint64 // faults that fired, all sites
	SwapRetries    uint64 // EAGAIN-style swap retries by the GC
	SwapFallbacks  uint64 // per-object degradations to byte copy
	SwapRollbacks  uint64 // transactional undos of partial swaps
	IPIResends     uint64 // shootdown IPIs re-sent after ack timeouts
	// CapRaceRetries is always 0 (its fault site is gone); like the blank
	// field above, it keeps the digest layout until the next benchmark change.
	CapRaceRetries uint64

	// Multi-tenant plane (zero unless a GC arbiter is armed).
	ArbiterWaits  uint64 // collections whose start the arbiter deferred
	ArbiterWaitNs uint64 // total simulated ns of deferred GC starts

	// Pressure plane (zero unless watermarks are armed).
	PressureStalls uint64 // mutator allocations stalled at the low watermark
	EmergencyGCs   uint64 // collections triggered by memory pressure
	ReservedAllocs uint64 // frames drawn from the GC reserve pool
	EvacFailures   uint64 // evacuation compactions degraded to in-place slide

	// Swap tier (zero unless a swap tier is armed).
	SwapOutPages   uint64 // pages written back to the tier by the reclaimer
	SwapInPages    uint64 // major faults: swapped pages read back in
	ZeroFillPages  uint64 // minor faults: demand-zero pages materialised
	ReclaimRuns    uint64 // reclaimer activations (kswapd + direct)
	DirectReclaims uint64 // of ReclaimRuns, synchronous direct reclaims
}

// Add accumulates other into p.
func (p *Perf) Add(other *Perf) {
	p.CacheRefs += other.CacheRefs
	p.CacheMisses += other.CacheMisses
	p.BytesRead += other.BytesRead
	p.BytesWrite += other.BytesWrite
	p.TLBLookups += other.TLBLookups
	p.TLBMisses += other.TLBMisses
	p.PTWalks += other.PTWalks
	p.PTLevelHits += other.PTLevelHits
	p.ChargeRuns += other.ChargeRuns
	p.RunWords += other.RunWords
	p.RunFallbacks += other.RunFallbacks
	p.StreamRuns += other.StreamRuns
	p.StreamBytes += other.StreamBytes
	p.TLBFlushLocal += other.TLBFlushLocal
	p.TLBFlushPage += other.TLBFlushPage
	p.IPIsSent += other.IPIsSent
	p.IPIsRemote += other.IPIsRemote
	p.Shootdowns += other.Shootdowns
	p.NUMALocal += other.NUMALocal
	p.NUMARemote += other.NUMARemote
	p.NUMARemoteBytes += other.NUMARemoteBytes
	p.CrossNodeSwaps += other.CrossNodeSwaps
	p.Syscalls += other.Syscalls
	p.SwapVACalls += other.SwapVACalls
	p.PagesSwapped += other.PagesSwapped
	p.PMDSwaps += other.PMDSwaps
	p.MemmoveCalls += other.MemmoveCalls
	p.BytesCopied += other.BytesCopied
	p.PTELockWaits += other.PTELockWaits
	p.PTELockWaitNs += other.PTELockWaitNs
	p.FaultsInjected += other.FaultsInjected
	p.SwapRetries += other.SwapRetries
	p.SwapFallbacks += other.SwapFallbacks
	p.SwapRollbacks += other.SwapRollbacks
	p.IPIResends += other.IPIResends
	p.CapRaceRetries += other.CapRaceRetries
	p.ArbiterWaits += other.ArbiterWaits
	p.ArbiterWaitNs += other.ArbiterWaitNs
	p.PressureStalls += other.PressureStalls
	p.EmergencyGCs += other.EmergencyGCs
	p.ReservedAllocs += other.ReservedAllocs
	p.EvacFailures += other.EvacFailures
	p.SwapOutPages += other.SwapOutPages
	p.SwapInPages += other.SwapInPages
	p.ZeroFillPages += other.ZeroFillPages
	p.ReclaimRuns += other.ReclaimRuns
	p.DirectReclaims += other.DirectReclaims
}

// Reset zeroes all counters.
func (p *Perf) Reset() { *p = Perf{} }

// CacheMissPct returns the LLC miss ratio as a percentage, the statistic
// reported in the paper's Table III. It returns 0 when nothing was sampled.
func (p *Perf) CacheMissPct() float64 {
	if p.CacheRefs == 0 {
		return 0
	}
	return 100 * float64(p.CacheMisses) / float64(p.CacheRefs)
}

// DTLBMissPct returns the data-TLB miss ratio as a percentage.
func (p *Perf) DTLBMissPct() float64 {
	if p.TLBLookups == 0 {
		return 0
	}
	return 100 * float64(p.TLBMisses) / float64(p.TLBLookups)
}

// String summarises the most important counters on one line.
func (p *Perf) String() string {
	return fmt.Sprintf(
		"cache %.2f%% miss (%d refs), dtlb %.2f%% miss (%d lookups), swapva %d calls/%d pages, memmove %d calls/%d B, ipis %d",
		p.CacheMissPct(), p.CacheRefs, p.DTLBMissPct(), p.TLBLookups,
		p.SwapVACalls, p.PagesSwapped, p.MemmoveCalls, p.BytesCopied, p.IPIsSent)
}
