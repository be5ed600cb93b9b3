package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// TestConcurrentTenantChargeChurn interleaves several capped tenants'
// address spaces through map / over-cap / unmap cycles — the multi-AS
// churn a multi-tenant soak produces — and checks after every step that
// MemReport shows each tenant's charge within [0, cap], and that the cap
// accounting balances to zero at the end.
func TestConcurrentTenantChargeChurn(t *testing.T) {
	m := MustNew(Config{Cost: sim.XeonGold6130()})
	const tenants = 4
	ts := make([]*mem.Tenant, tenants)
	for i := range ts {
		tt, err := m.NewTenant(fmt.Sprintf("t%d", i), 256)
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tt
	}
	checkReport := func(step string) {
		t.Helper()
		for _, u := range m.MemReport().Tenants {
			if u.Charged < 0 || u.Charged > u.CapFrames {
				t.Fatalf("%s: tenant %s charged %d outside [0, %d]", step, u.Name, u.Charged, u.CapFrames)
			}
		}
	}
	spaces := make([]*mmu.AddressSpace, tenants)
	vas := make([]uint64, tenants)
	for rep := 0; rep < 50; rep++ {
		for i, tt := range ts {
			spaces[i] = m.NewAddressSpaceFor(tt)
			va, err := spaces[i].MapRegion(32)
			if err != nil {
				t.Fatalf("rep %d tenant %d: %v", rep, i, err)
			}
			vas[i] = va
			checkReport("map")
		}
		// A second mapping that must overflow the 256-frame cap fails with
		// the structured error and leaves no charge behind.
		for i, as := range spaces {
			_, err := as.MapRegion(512)
			var ce *mem.CapError
			if !errors.As(err, &ce) {
				t.Fatalf("rep %d tenant %d: over-cap error = %v, want *mem.CapError", rep, i, err)
			}
			if !errors.Is(err, mem.ErrTenantCap) || !errors.Is(err, mem.ErrNoMemory) {
				t.Fatalf("rep %d tenant %d: %v matches neither ErrTenantCap nor ErrNoMemory", rep, i, err)
			}
			// The message names the tenant, its charge and its cap.
			if want := fmt.Sprintf("tenant %q over cap: 32/256 pages charged, 512 more requested: ", ts[i].Name()); !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("rep %d tenant %d: message %q, want prefix %q", rep, i, err, want)
			}
			checkReport("over-cap")
		}
		for i, as := range spaces {
			as.Unmap(vas[i], 32, true)
			checkReport("unmap")
		}
	}
	for i, tt := range ts {
		if got := tt.Usage().Charged; got != 0 {
			t.Errorf("tenant %d: %d pages still charged after full unmap", i, got)
		}
	}
}
