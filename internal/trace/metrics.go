package trace

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/sim"
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
// point in time. Perf sums the counters of every context the tracers
// served, so each count it prints is the one the figures read; the
// tracer adds per-kind event counts, the four attribution histograms the
// paper's figures lean on (swap request sizes, PTE-lock hold and wait
// times, intervals between TLB shootdowns) and injected faults by site.
type Snapshot struct {
	Perf           sim.Perf
	EventsByKind   map[string]uint64
	Emitted        uint64
	Dropped        uint64
	Spilled        uint64       // events streamed to a spill writer (SetSpill)
	SwapPages      HistSnapshot // pages per applied swap request
	LockHoldNs     HistSnapshot // simulated ns per PTE-lock critical section
	LockWaitNs     HistSnapshot // simulated ns queued behind a PTE lock
	ShootdownGapNs HistSnapshot // simulated ns between a context's shootdowns
	FaultsBySite   [NumFaultSites]uint64
}

// SnapshotOf aggregates the current metric state of the given tracers.
// Like Merge, call it after the simulated work has completed.
func SnapshotOf(tracers ...*Tracer) *Snapshot {
	s := &Snapshot{EventsByKind: make(map[string]uint64)}
	for _, t := range tracers {
		for _, b := range t.bufs {
			s.Perf.Add(b.perf)
			for k := 0; k < numKinds; k++ {
				if c := b.m.kindCount[k]; c > 0 {
					s.EventsByKind[Kind(k).String()] += c
				}
			}
			s.Emitted += b.emitted
			s.Dropped += b.dropped
			s.Spilled += b.spilled
			s.SwapPages.add(&b.m.swapPages)
			s.LockHoldNs.add(&b.m.lockHold)
			s.LockWaitNs.add(&b.m.lockWait)
			s.ShootdownGapNs.add(&b.m.sdGap)
			for i := range s.FaultsBySite {
				s.FaultsBySite[i] += b.m.faultBySite[i]
			}
		}
	}
	return s
}

// Merge accumulates other into s (used to combine machines in a sweep).
func (s *Snapshot) Merge(other *Snapshot) {
	s.Perf.Add(&other.Perf)
	for k, v := range other.EventsByKind {
		s.EventsByKind[k] += v
	}
	s.Emitted += other.Emitted
	s.Dropped += other.Dropped
	s.Spilled += other.Spilled
	s.SwapPages.merge(&other.SwapPages)
	s.LockHoldNs.merge(&other.LockHoldNs)
	s.LockWaitNs.merge(&other.LockWaitNs)
	s.ShootdownGapNs.merge(&other.ShootdownGapNs)
	for i := range s.FaultsBySite {
		s.FaultsBySite[i] += other.FaultsBySite[i]
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters and cumulative histograms), so the numbers a run
// produced can be diffed, scraped, or plotted without bespoke parsing.
// The text is built in memory (a few KiB) and written in one call.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	header := func(name, help string) {
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	counter := func(name, help string, v uint64) {
		header(name, help)
		p("%s %d\n", name, v)
	}
	header("svagc_trace_events_total", "Events recorded, by kind.")
	// Stable order: iterate kinds, not the map.
	for k := 0; k < numKinds; k++ {
		name := Kind(k).String()
		if c, ok := s.EventsByKind[name]; ok {
			p("svagc_trace_events_total{kind=%q} %d\n", name, c)
		}
	}
	counter("svagc_trace_dropped_total", "Events overwritten in ring buffers.", s.Dropped)
	counter("svagc_trace_spilled_total", "Events streamed to the spill writer.", s.Spilled)
	counter("svagc_bus_bytes_total", "Bytes moved by Memmove bulk transfers.", s.Perf.BytesCopied)
	// IPIsSent also counts the re-sends after dropped acks, which have
	// their own series.
	counter("svagc_ipis_total", "Shootdown IPIs sent.", s.Perf.IPIsSent-s.Perf.IPIResends)
	counter("svagc_ipis_remote_total", "Of the shootdown IPIs sent, targets on another socket.", s.Perf.IPIsRemote)
	header("svagc_numa_accesses_total", "Placement-resolved charged accesses, by locality.")
	p("svagc_numa_accesses_total{locality=\"local\"} %d\nsvagc_numa_accesses_total{locality=\"remote\"} %d\n",
		s.Perf.NUMALocal, s.Perf.NUMARemote)
	counter("svagc_numa_remote_bytes_total", "Bytes streamed across the socket interconnect.", s.Perf.NUMARemoteBytes)
	header("svagc_faults_injected_total", "Faults injected by internal/fault, by site.")
	for i := 0; i < NumFaultSites; i++ {
		if c := s.FaultsBySite[i]; c > 0 {
			p("svagc_faults_injected_total{site=%q} %d\n", FaultSite(i).String(), c)
		}
	}
	counter("svagc_swap_retries_total", "EAGAIN-style swap retries after transient faults.", s.Perf.SwapRetries)
	counter("svagc_swap_fallbacks_total", "Per-object degradations from SwapVA to byte-copy compaction.", s.Perf.SwapFallbacks)
	counter("svagc_swap_rollbacks_total", "Transactional undos of partially applied swap requests.", s.Perf.SwapRollbacks)
	counter("svagc_ipi_resends_total", "Shootdown IPIs re-sent after dropped-ack timeouts.", s.Perf.IPIResends)
	counter("svagc_swap_out_pages_total", "Pages written to the swap tier by the reclaimer.", s.Perf.SwapOutPages)
	counter("svagc_swap_in_pages_total", "Swapped pages faulted back to residence.", s.Perf.SwapInPages)
	counter("svagc_reclaim_runs_total", "Reclaimer activations (kswapd wakeups plus direct reclaims).", s.Perf.ReclaimRuns)
	for _, h := range []struct {
		name, help string
		snap       *HistSnapshot
	}{
		{"svagc_swap_request_pages", "Pages per applied SwapVA request.", &s.SwapPages},
		{"svagc_pte_lock_hold_ns", "Simulated ns per PTE-lock critical section.", &s.LockHoldNs},
		{"svagc_pte_lock_wait_ns", "Simulated ns queued behind a contended PTE lock before acquisition.", &s.LockWaitNs},
		{"svagc_shootdown_interval_ns", "Simulated ns between a context's TLB shootdowns.", &s.ShootdownGapNs},
	} {
		writeHist(p, h.name, h.help, h.snap)
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writeHist(p func(string, ...any), name, help string, h *HistSnapshot) {
	p("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.Counts[b]
		if h.Counts[b] == 0 {
			continue // keep output compact; cumulative counts stay correct
		}
		// Upper bound of bucket b: values with bit length <= b.
		ub := uint64(1)<<uint(b) - 1
		p("%s_bucket{le=\"%d\"} %d\n", name, ub, cum)
	}
	p("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	p("%s_sum %g\n%s_count %d\n", name, h.Sum, name, h.Count)
}
