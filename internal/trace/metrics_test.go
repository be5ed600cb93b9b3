package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFaultCountersInSnapshotAndPrometheus checks the fault-plane series
// the CI chaos job scrapes: injections by site from the fault events,
// and the recovery ladder's counts from the buffer's sim.Perf, so a
// fallback event that is not a swap degradation (an evacuation sliding
// in place) adds no svagc_swap_fallbacks_total.
func TestFaultCountersInSnapshotAndPrometheus(t *testing.T) {
	tr := New(64)
	// Seven IPIs, five of them re-sent after dropped acks.
	b := tr.NewBuffer(0, &sim.Perf{SwapRetries: 3, SwapFallbacks: 1,
		SwapRollbacks: 2, IPIsSent: 12, IPIResends: 5})

	b.Emit(KindFault, "fault", 0, 0, uint64(FaultSwapTransient), 0)
	b.Emit(KindFault, "fault", 1, 0, uint64(FaultSwapTransient), 0)
	b.Emit(KindFault, "fault", 2, 0, uint64(FaultFramePoison), 0)
	b.Emit(KindFault, "fault", 3, 0, uint64(FaultIPIAck), 5)
	b.ObserveFault(FaultInterconnect)
	b.Emit(KindFallback, "swap-fallback-memmove", 7, 0, 0, 0)
	b.Emit(KindFallback, "evac-degrade-slide", 8, 0, 0, 0)

	s := SnapshotOf(tr)
	for site, want := range map[FaultSite]uint64{
		FaultSwapTransient: 2, FaultFramePoison: 1, FaultIPIAck: 1, FaultInterconnect: 1,
	} {
		if got := s.FaultsBySite[site]; got != want {
			t.Errorf("FaultsBySite[%s] = %d, want %d", site, got, want)
		}
	}

	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`svagc_faults_injected_total{site="swap_transient"} 2`,
		`svagc_faults_injected_total{site="frame_poison"} 1`,
		`svagc_faults_injected_total{site="ipi_ack"} 1`,
		`svagc_faults_injected_total{site="interconnect"} 1`,
		`svagc_trace_events_total{kind="fallback"} 2`,
		"svagc_swap_retries_total 3",
		"svagc_swap_fallbacks_total 1",
		"svagc_swap_rollbacks_total 2",
		"svagc_ipi_resends_total 5",
		"svagc_ipis_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// TestFaultSiteStrings pins the metric label spellings: they are scrape
// contracts, and fault.ParsePlan accepts them as site names.
func TestFaultSiteStrings(t *testing.T) {
	want := map[FaultSite]string{
		FaultPTELockStall:  "pte_lock_stall",
		FaultIPIAck:        "ipi_ack",
		FaultSwapTransient: "swap_transient",
		FaultFramePoison:   "frame_poison",
		FaultInterconnect:  "interconnect",
	}
	for site, name := range want {
		if got := site.String(); got != name {
			t.Errorf("FaultSite(%d).String() = %q, want %q", site, got, name)
		}
	}
}
