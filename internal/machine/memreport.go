package machine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/swaptier"
)

// ASUsage attributes frame consumption to one address space.
type ASUsage struct {
	ASID  uint32
	Pages int // currently mapped pages
}

// MemReport is the OOM-killer-style machine-wide memory diagnostic:
// allocator accounting plus the top frame consumers. It is attached to
// memory-pressure failures so an ErrMemoryPressure carries enough context
// to see *who* ate the frames.
type MemReport struct {
	Usage mem.Usage
	// Top holds the heaviest address spaces by mapped pages, descending
	// (ties broken by ASID ascending for deterministic output), at most
	// five entries.
	Top []ASUsage
	// Swap is the tier occupancy snapshot; zero (and unprinted) when the
	// swap plane is disarmed.
	Swap        swaptier.Stats
	SwapEnabled bool
	// Tenants holds per-tenant cap accounting in registration order; empty
	// (and unprinted) on a machine without tenants, keeping zero-config
	// reports byte-identical.
	Tenants []mem.TenantUsage
}

// MemReport snapshots the machine's memory accounting.
func (m *Machine) MemReport() MemReport {
	r := MemReport{Usage: m.Phys.Usage()}
	if m.swap != nil {
		r.Swap = m.swap.Stats()
		r.SwapEnabled = true
	}
	for _, as := range m.spaces {
		if p := as.MappedPages(); p > 0 {
			r.Top = append(r.Top, ASUsage{ASID: as.ASID, Pages: p})
		}
	}
	for _, t := range m.tenants {
		r.Tenants = append(r.Tenants, t.Usage())
	}
	sort.Slice(r.Top, func(i, j int) bool {
		if r.Top[i].Pages != r.Top[j].Pages {
			return r.Top[i].Pages > r.Top[j].Pages
		}
		return r.Top[i].ASID < r.Top[j].ASID
	})
	if len(r.Top) > 5 {
		r.Top = r.Top[:5]
	}
	return r
}

// String renders the report as an indented multi-line block, stable for
// golden comparison.
func (r MemReport) String() string {
	var b strings.Builder
	u := r.Usage
	if u.Limit > 0 {
		fmt.Fprintf(&b, "phys: %d/%d frames in use, %d reserved, %d available, pressure %s\n",
			u.InUse, u.Limit, u.Reserved, u.Available, u.Pressure)
	} else {
		fmt.Fprintf(&b, "phys: %d frames in use (unlimited pool)\n", u.InUse)
	}
	if u.Watermarks.Enabled() {
		fmt.Fprintf(&b, "watermarks: min=%d low=%d high=%d\n",
			u.Watermarks.Min, u.Watermarks.Low, u.Watermarks.High)
	}
	if r.SwapEnabled {
		s := r.Swap
		fmt.Fprintf(&b, "swap: %d pages out (%d zpool / %d far), zpool %d B, far %d B, %d out / %d in / %d zero\n",
			s.Slots, s.ZpoolSlots, s.FarSlots, s.ZpoolUsed, s.FarUsed,
			s.OutPages, s.InPages, s.ZeroPages)
	}
	for _, n := range u.Nodes {
		fmt.Fprintf(&b, "node %d: %d frames grown, %d free\n", n.Node, n.Grown, n.Free)
	}
	for i, t := range r.Top {
		fmt.Fprintf(&b, "top[%d]: asid %d, %d pages (%d KiB)\n",
			i, t.ASID, t.Pages, t.Pages<<(mem.PageShift-10))
	}
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "tenant %s: %d/%d pages charged (peak %d)\n",
			t.Name, t.Charged, t.CapFrames, t.Peak)
	}
	return b.String()
}
