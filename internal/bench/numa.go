package bench

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// NUMA1ShootdownScaling is the topology extension's headline figure: the
// Fig. 9 workload (100 swappable objects of 16 pages, moved by per-call
// broadcast SwapVA) re-run with the same cores packaged as one socket
// versus two. On two sockets every broadcast crosses the interconnect for
// half its targets, and with interleaved page placement half the PTE
// walks and frame pairs are remote, so both the IPI and the data-path
// surcharges are visible in one sweep. The single-socket column is
// numerically identical to the flat machine, which is what the parity
// tests pin down.
func NUMA1ShootdownScaling(opt Options) (*Result, error) {
	coreCounts := []int{2, 4, 8, 16, 32}
	if opt.Quick {
		coreCounts = []int{2, 16}
	}
	// Odd region size (objects*pagesPer) phase-shifts the two interleaved
	// regions by one node: every PTE pair then holds frames on different
	// nodes, so the cross-node swap surcharge is exercised on every page.
	const objects, pagesPer = 101, 15
	res := &Result{
		ID:     "numa1",
		Title:  "Extension: SwapVA shootdown scaling, 1 vs 2 sockets (interleaved pages)",
		Paper:  "dual-socket testbeds pay remote IPI acks and interconnect crossings the flat model hides; the gap grows with core count",
		Header: []string{"cores", "1-socket", "2-socket", "slowdown", "ipis", "ipis-remote", "remote-acc", "xnode-swaps"},
	}
	for _, cores := range coreCounts {
		var times [2]sim.Time
		var perfs [2]sim.Perf
		for si, sockets := range []int{1, 2} {
			cost := *opt.cost()
			cost.Cores = cores
			cfg := machine.Config{Cost: &cost, Sockets: sockets, NUMAPolicy: topology.PolicyInterleave}
			err := onMicroFixture(opt, cfg, objects*pagesPer, func(f *microFixture) (sim.Time, error) {
				ctx := f.m.NewContext(0)
				for i := 0; i < objects; i++ {
					off := uint64(i*pagesPer) << 12
					if err := f.mv.Swap(ctx, f.va1+off, f.va2+off, pagesPer, kernel.DefaultOptions()); err != nil {
						return 0, err
					}
				}
				times[si], perfs[si] = ctx.Clock.Now(), *ctx.Perf
				return times[si], nil
			})
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", cores), times[0].String(), times[1].String(),
			stats.X(stats.Ratio(float64(times[1]), float64(times[0]))),
			fmt.Sprintf("%d", perfs[1].IPIsSent),
			fmt.Sprintf("%d", perfs[1].IPIsRemote),
			fmt.Sprintf("%d", perfs[1].NUMARemote),
			fmt.Sprintf("%d", perfs[1].CrossNodeSwaps),
		})
	}
	res.Notes = append(res.Notes,
		"1-socket column equals the flat machine bit-for-bit (see topology parity tests)")
	return res, nil
}
