package trace

import (
	"fmt"
	"io"
)

// HistSnapshot is an aggregated power-of-two histogram. Bucket b counts
// observed values v with bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b);
// bucket 0 counts zeros.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	Sum    float64
	Count  uint64
}

func (h *HistSnapshot) add(o *hist) {
	for i := range h.Counts {
		h.Counts[i] += o.counts[i]
	}
	h.Sum += o.sum
	h.Count += o.n
}

// merge accumulates another snapshot's buckets.
func (h *HistSnapshot) merge(o *HistSnapshot) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
	h.Count += o.Count
}

// Snapshot is the aggregate metric state of one or more tracers at a
// point in time: per-kind event counts plus the three attribution
// histograms the paper's figures lean on (swap request sizes, PTE-lock
// hold times, intervals between TLB shootdowns).
type Snapshot struct {
	EventsByKind   map[string]uint64
	Emitted        uint64
	Dropped        uint64
	Spilled        uint64 // events streamed to a spill writer (SetSpill)
	BusBytes       uint64
	IPIs           uint64
	IPIsRemote     uint64       // of IPIs, targets on another socket
	NUMALocal      uint64       // charged accesses resolved to the local node
	NUMARemote     uint64       // charged accesses that crossed the interconnect
	NUMARemoteB    uint64       // bytes streamed across the interconnect
	SwapPages      HistSnapshot // pages per applied swap request
	LockHoldNs     HistSnapshot // simulated ns per PTE-lock critical section
	LockWaitNs     HistSnapshot // simulated ns queued behind a PTE lock
	ShootdownGapNs HistSnapshot // simulated ns between a context's shootdowns

	// Fault plane (internal/fault): injections by site plus the
	// degradation ladder the GC climbed in response.
	FaultsBySite  [NumFaultSites]uint64
	SwapRetries   uint64 // EAGAIN-style swap retries (KindRetry)
	SwapFallbacks uint64 // per-object degradations to byte copy (KindFallback)
	SwapRollbacks uint64 // transactional undos of partial swaps (KindRollback)
	IPIResends    uint64 // shootdown IPIs re-sent after ack timeouts

	// Swap tier (internal/swaptier): reclaim write-backs, demand
	// fault-ins, and reclaimer activations.
	SwapOutPages uint64 // pages written to the tier (KindSwapOut)
	SwapInPages  uint64 // pages faulted back in (KindSwapIn)
	ReclaimRuns  uint64 // reclaimer activations (KindReclaim)
}

// SnapshotOf aggregates the current metric state of the given tracers.
// Like Merge, call it after the simulated work has completed.
func SnapshotOf(tracers ...*Tracer) *Snapshot {
	s := &Snapshot{EventsByKind: make(map[string]uint64)}
	for _, t := range tracers {
		for _, b := range t.bufs {
			for k := 0; k < numKinds; k++ {
				if c := b.m.kindCount[k]; c > 0 {
					s.EventsByKind[Kind(k).String()] += c
				}
			}
			s.Emitted += b.emitted
			s.Dropped += b.dropped
			s.Spilled += b.spilled
			s.BusBytes += b.m.busBytes
			s.IPIs += b.m.ipis
			s.IPIsRemote += b.m.ipisRemote
			s.NUMALocal += b.m.numaLocal
			s.NUMARemote += b.m.numaRemote
			s.NUMARemoteB += b.m.numaRemoteBytes
			s.SwapPages.add(&b.m.swapPages)
			s.LockHoldNs.add(&b.m.lockHold)
			s.LockWaitNs.add(&b.m.lockWait)
			s.ShootdownGapNs.add(&b.m.sdGap)
			for i := range s.FaultsBySite {
				s.FaultsBySite[i] += b.m.faultBySite[i]
			}
			s.SwapRetries += b.m.retries
			s.SwapFallbacks += b.m.fallbacks
			s.SwapRollbacks += b.m.rollbacks
			s.IPIResends += b.m.ipiResends
			s.SwapOutPages += b.m.swapOutPages
			s.SwapInPages += b.m.swapInPages
			s.ReclaimRuns += b.m.reclaimRuns
		}
	}
	return s
}

// Merge accumulates other into s (used to combine machines in a sweep).
func (s *Snapshot) Merge(other *Snapshot) {
	for k, v := range other.EventsByKind {
		s.EventsByKind[k] += v
	}
	s.Emitted += other.Emitted
	s.Dropped += other.Dropped
	s.Spilled += other.Spilled
	s.BusBytes += other.BusBytes
	s.IPIs += other.IPIs
	s.IPIsRemote += other.IPIsRemote
	s.NUMALocal += other.NUMALocal
	s.NUMARemote += other.NUMARemote
	s.NUMARemoteB += other.NUMARemoteB
	s.SwapPages.merge(&other.SwapPages)
	s.LockHoldNs.merge(&other.LockHoldNs)
	s.LockWaitNs.merge(&other.LockWaitNs)
	s.ShootdownGapNs.merge(&other.ShootdownGapNs)
	for i := range s.FaultsBySite {
		s.FaultsBySite[i] += other.FaultsBySite[i]
	}
	s.SwapRetries += other.SwapRetries
	s.SwapFallbacks += other.SwapFallbacks
	s.SwapRollbacks += other.SwapRollbacks
	s.IPIResends += other.IPIResends
	s.SwapOutPages += other.SwapOutPages
	s.SwapInPages += other.SwapInPages
	s.ReclaimRuns += other.ReclaimRuns
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters and cumulative histograms), so the numbers a run
// produced can be diffed, scraped, or plotted without bespoke parsing.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("# HELP svagc_trace_events_total Events recorded, by kind.\n# TYPE svagc_trace_events_total counter\n"); err != nil {
		return err
	}
	// Stable order: iterate kinds, not the map.
	for k := 0; k < numKinds; k++ {
		name := Kind(k).String()
		if c, ok := s.EventsByKind[name]; ok {
			if err := p("svagc_trace_events_total{kind=%q} %d\n", name, c); err != nil {
				return err
			}
		}
	}
	if err := p("# HELP svagc_trace_dropped_total Events overwritten in ring buffers.\n# TYPE svagc_trace_dropped_total counter\nsvagc_trace_dropped_total %d\n", s.Dropped); err != nil {
		return err
	}
	if err := p("# HELP svagc_trace_spilled_total Events streamed to the spill writer.\n# TYPE svagc_trace_spilled_total counter\nsvagc_trace_spilled_total %d\n", s.Spilled); err != nil {
		return err
	}
	if err := p("# HELP svagc_bus_bytes_total Bytes moved by Memmove bulk transfers.\n# TYPE svagc_bus_bytes_total counter\nsvagc_bus_bytes_total %d\n", s.BusBytes); err != nil {
		return err
	}
	if err := p("# HELP svagc_ipis_total Shootdown IPIs sent.\n# TYPE svagc_ipis_total counter\nsvagc_ipis_total %d\n", s.IPIs); err != nil {
		return err
	}
	if err := p("# HELP svagc_ipis_remote_total Of the shootdown IPIs sent, targets on another socket.\n# TYPE svagc_ipis_remote_total counter\nsvagc_ipis_remote_total %d\n", s.IPIsRemote); err != nil {
		return err
	}
	if err := p("# HELP svagc_numa_accesses_total Placement-resolved charged accesses, by locality.\n# TYPE svagc_numa_accesses_total counter\nsvagc_numa_accesses_total{locality=\"local\"} %d\nsvagc_numa_accesses_total{locality=\"remote\"} %d\n", s.NUMALocal, s.NUMARemote); err != nil {
		return err
	}
	if err := p("# HELP svagc_numa_remote_bytes_total Bytes streamed across the socket interconnect.\n# TYPE svagc_numa_remote_bytes_total counter\nsvagc_numa_remote_bytes_total %d\n", s.NUMARemoteB); err != nil {
		return err
	}
	if err := p("# HELP svagc_faults_injected_total Faults injected by internal/fault, by site.\n# TYPE svagc_faults_injected_total counter\n"); err != nil {
		return err
	}
	for i := 0; i < NumFaultSites; i++ {
		if c := s.FaultsBySite[i]; c > 0 {
			if err := p("svagc_faults_injected_total{site=%q} %d\n", FaultSite(i).String(), c); err != nil {
				return err
			}
		}
	}
	if err := p("# HELP svagc_swap_retries_total EAGAIN-style swap retries after transient faults.\n# TYPE svagc_swap_retries_total counter\nsvagc_swap_retries_total %d\n", s.SwapRetries); err != nil {
		return err
	}
	if err := p("# HELP svagc_swap_fallbacks_total Per-object degradations from SwapVA to byte-copy compaction.\n# TYPE svagc_swap_fallbacks_total counter\nsvagc_swap_fallbacks_total %d\n", s.SwapFallbacks); err != nil {
		return err
	}
	if err := p("# HELP svagc_swap_rollbacks_total Transactional undos of partially applied swap requests.\n# TYPE svagc_swap_rollbacks_total counter\nsvagc_swap_rollbacks_total %d\n", s.SwapRollbacks); err != nil {
		return err
	}
	if err := p("# HELP svagc_ipi_resends_total Shootdown IPIs re-sent after dropped-ack timeouts.\n# TYPE svagc_ipi_resends_total counter\nsvagc_ipi_resends_total %d\n", s.IPIResends); err != nil {
		return err
	}
	if err := p("# HELP svagc_swap_out_pages_total Pages written to the swap tier by the reclaimer.\n# TYPE svagc_swap_out_pages_total counter\nsvagc_swap_out_pages_total %d\n", s.SwapOutPages); err != nil {
		return err
	}
	if err := p("# HELP svagc_swap_in_pages_total Swapped pages faulted back to residence.\n# TYPE svagc_swap_in_pages_total counter\nsvagc_swap_in_pages_total %d\n", s.SwapInPages); err != nil {
		return err
	}
	if err := p("# HELP svagc_reclaim_runs_total Reclaimer activations (kswapd wakeups plus direct reclaims).\n# TYPE svagc_reclaim_runs_total counter\nsvagc_reclaim_runs_total %d\n", s.ReclaimRuns); err != nil {
		return err
	}
	for _, h := range []struct {
		name, help string
		snap       *HistSnapshot
	}{
		{"svagc_swap_request_pages", "Pages per applied SwapVA request.", &s.SwapPages},
		{"svagc_pte_lock_hold_ns", "Simulated ns per PTE-lock critical section.", &s.LockHoldNs},
		{"svagc_pte_lock_wait_ns", "Simulated ns queued behind a contended PTE lock before acquisition.", &s.LockWaitNs},
		{"svagc_shootdown_interval_ns", "Simulated ns between a context's TLB shootdowns.", &s.ShootdownGapNs},
	} {
		if err := writeHist(p, h.name, h.help, h.snap); err != nil {
			return err
		}
	}
	return nil
}

func writeHist(p func(string, ...any) error, name, help string, h *HistSnapshot) error {
	if err := p("# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.Counts[b]
		if h.Counts[b] == 0 {
			continue // keep output compact; cumulative counts stay correct
		}
		// Upper bound of bucket b: values with bit length <= b.
		ub := uint64(1)<<uint(b) - 1
		if err := p("%s_bucket{le=\"%d\"} %d\n", name, ub, cum); err != nil {
			return err
		}
	}
	if err := p("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
		return err
	}
	return p("%s_sum %g\n%s_count %d\n", name, h.Sum, name, h.Count)
}
