package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Multi-tenant soak: N capped tenants, each its own JVM, churning in turn
// on one machine from the calling goroutine, so a seed replays the whole
// soak. The machine pool is unlimited — isolation comes from the
// per-tenant caps — and the invariants are per-tenant: every cycle each tenant's charged
// pages return to its post-warm-up baseline, an over-cap mapping is
// refused with the structured cap error while the neighbours keep
// allocating, and the machine-wide frame/reservation/goroutine
// accounting stays flat.

// tenantCapSlack is the headroom a tenant cap gets over the worst-case
// transient (heap plus a copying collector's to-space).
const tenantCapSlack = 64

// tenantRig is one tenant's soak actor: the capped JVM plus its
// deterministic churn state.
type tenantRig struct {
	tenant *mem.Tenant
	j      *jvm.JVM
	th     *jvm.Thread
	rng    *rand.Rand
	live   []*gc.Root
	base   int // charged-pages baseline, pinned after warm-up
}

// churn is one tenant's cycle: drop survivors, allocate a fresh set,
// collect. The tenants of a cycle churn one after another.
func (r *tenantRig) churn(n int) error {
	for _, root := range r.live {
		r.j.Roots.Remove(root)
	}
	r.live = r.live[:0]
	sizes := []int{96, 4096, 16 << 10, 64 << 10}
	for i := 0; i < 48; i++ {
		spec := heap.AllocSpec{Payload: sizes[r.rng.Intn(len(sizes))], Class: uint16(1 + i%7)}
		root, err := r.th.AllocRooted(spec)
		if err != nil {
			return fmt.Errorf("cycle %d: %s churn alloc: %w", n, r.j.Name(), err)
		}
		r.live = append(r.live, root)
	}
	if _, err := r.j.CollectNow(); err != nil {
		return fmt.Errorf("cycle %d: %s collection: %w", n, r.j.Name(), err)
	}
	return nil
}

// runTenants is the Tenants > 1 soak mode.
func runTenants(cfg Config) (*Result, error) {
	collector := cfg.Collector
	if collector == "" {
		collector = jvm.CollectorSVAGC
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	workers := cfg.GCWorkers
	if workers <= 0 {
		workers = 4
	}
	capFrames := cfg.TenantCapFrames
	if capFrames <= 0 {
		capFrames = 2*int(soakHeapBytes>>mem.PageShift) + tenantCapSlack
	}

	m, err := machine.New(machine.Config{Cost: sim.XeonGold6130()})
	if err != nil {
		return nil, err
	}
	arb := sched.New(sched.Config{MaxConcurrent: 1})
	rigs := make([]*tenantRig, cfg.Tenants)
	for i := range rigs {
		tenant, err := m.NewTenant(fmt.Sprintf("soak%d", i), capFrames)
		if err != nil {
			return nil, err
		}
		jcfg, ok := jvm.ConfigForDeadline(collector, soakHeapBytes, 1, workers, cfg.Watchdog)
		if !ok {
			return nil, fmt.Errorf("soak: unknown collector %q (want %v)", collector, jvm.CollectorNames())
		}
		jcfg.Tenant = tenant
		jcfg.Arbiter = arb
		jcfg.BaseCore = i * (1 + workers)
		j, err := jvm.New(m, jcfg)
		if err != nil {
			return nil, fmt.Errorf("soak: tenant %d: %w", i, err)
		}
		rigs[i] = &tenantRig{
			tenant: tenant,
			j:      j,
			th:     j.Thread(0),
			rng:    rand.New(rand.NewSource(seed ^ int64(i)*0x9E3779B9)),
		}
	}
	res := &Result{}

	cycle := func(n int) error {
		for _, r := range rigs {
			if err := r.churn(n); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm-up cycle, then pin the baselines.
	if err := cycle(0); err != nil {
		return res, err
	}
	res.Cycles = 1
	res.Baseline = int(m.Phys.Usage().InUse)
	for _, r := range rigs {
		r.base = r.tenant.Usage().Charged
	}
	gBase := runtime.NumGoroutine()

	start := time.Now()
	for n := 1; n == 1 || time.Since(start) < duration; n++ {
		if err := cycle(n); err != nil {
			return res, err
		}
		res.Cycles++

		// Isolation: tenant 0 is driven over its cap — a ballast mapping
		// bigger than its whole budget must be refused with the
		// structured cap error and charge nothing...
		greedy := m.NewAddressSpaceFor(rigs[0].tenant)
		if _, err := greedy.MapRegion(capFrames + 1); err == nil {
			return res, fmt.Errorf("cycle %d: %d-page map under a %d-frame cap succeeded",
				n, capFrames+1, capFrames)
		} else {
			var ce *mem.CapError
			if !errors.As(err, &ce) {
				return res, fmt.Errorf("cycle %d: over-cap error = %v, want *mem.CapError", n, err)
			}
			res.FailFasts++
		}
		// ...while every other tenant still allocates.
		for _, r := range rigs[1:] {
			if _, err := r.th.Alloc(heap.AllocSpec{Payload: 256}); err != nil {
				return res, fmt.Errorf("cycle %d: %s allocation failed during a neighbour's over-cap episode: %w",
					n, r.j.Name(), err)
			}
		}

		// Per-tenant accounting: the refused mapping and the cycle's churn
		// left every tenant's charge exactly at its baseline.
		for _, r := range rigs {
			if got := r.tenant.Usage().Charged; got != r.base {
				return res, fmt.Errorf("cycle %d: tenant %s charge leak: %d pages charged, baseline %d\n%s",
					n, r.tenant.Name(), got, r.base, m.MemReport())
			}
		}
		if got := int(m.Phys.Usage().InUse); got != res.Baseline {
			return res, fmt.Errorf("cycle %d: frame leak: %d frames in use, baseline %d\n%s",
				n, got, res.Baseline, m.MemReport())
		}
		if rsv := m.Phys.Reserved(); rsv != 0 {
			return res, fmt.Errorf("cycle %d: reservation leak: %d frames still reserved", n, rsv)
		}
		if got := runtime.NumGoroutine(); got > gBase+goroutineSlack {
			return res, fmt.Errorf("cycle %d: goroutine growth: %d running, baseline %d", n, got, gBase)
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "soak: cycle %d ok (%d tenants, %d collections each, arbiter %+v)\n",
				n, len(rigs), rigs[0].j.GCCount(""), arb.Stats())
		}
	}

	for _, r := range rigs {
		perf := r.j.TotalPerf()
		res.Collections += r.j.GCCount("")
		res.Degraded += r.j.GC.Stats().Degraded()
		res.Stalls += perf.PressureStalls
		res.Emergency += perf.EmergencyGCs
		if t := r.j.AppTime(); t > res.SimTime {
			res.SimTime = t
		}
	}
	return res, nil
}
