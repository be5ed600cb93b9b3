package bench

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestNewMachine builds two machines per case from the same Options and
// shape: what the shape pins wins, Options fill its zero fields, every
// machine gets its own fault injector and tracer, and the shape's pool,
// watermarks and tier pass through untouched.
func TestNewMachine(t *testing.T) {
	i5, gold := sim.CoreI5_7600(), sim.XeonGold6240()
	shared := Options{Cost: gold, Sockets: 2, NUMAPolicy: topology.PolicyBind, NUMABind: 1}
	wm := mem.Watermarks{Min: 8, Low: 16, High: 32}
	tier := swaptier.Config{FarBytes: 64 << 20, ZpoolBytes: 1 << 20, FarLatNs: 25_000}
	for _, c := range []struct {
		name  string
		opt   Options
		shape machine.Config
		check func(t *testing.T, m, m2 *machine.Machine)
	}{
		{"shape pins cost and sockets", shared, machine.Config{Cost: i5, Sockets: 1},
			func(t *testing.T, m, _ *machine.Machine) {
				if p := m.NewAddressSpace().Placement(); m.Cost != i5 || m.Nodes() != 1 || p.Policy != topology.PolicyFirstTouch {
					t.Errorf("got %s on %d nodes placing %v, want the shape's %s on 1 node placing first-touch",
						m.Cost.Name, m.Nodes(), p.Policy, i5.Name)
				}
			}},
		{"options fill the zero fields", shared, machine.Config{},
			func(t *testing.T, m, _ *machine.Machine) {
				if p := m.NewAddressSpace().Placement(); m.Cost != gold || m.Nodes() != 2 ||
					p.Policy != topology.PolicyBind || p.Bind != 1 {
					t.Errorf("got %s on %d nodes placing %v:%d, want the options' %s on 2 nodes placing bind:1",
						m.Cost.Name, m.Nodes(), p.Policy, p.Bind, gold.Name)
				}
			}},
		{"zero options build the flat default machine", Options{}, machine.Config{},
			func(t *testing.T, m, _ *machine.Machine) {
				if m.Cost.Name != "XeonGold6130" || m.Nodes() != 1 || m.FaultInjector() != nil ||
					m.Tracer() != nil || m.SwapEnabled() || m.Phys.Limit() != 0 {
					t.Errorf("got %s on %d nodes, injector %v, tracer %v, swap %v, limit %d; want a flat, healthy, untraced, unbounded XeonGold6130",
						m.Cost.Name, m.Nodes(), m.FaultInjector(), m.Tracer(), m.SwapEnabled(), m.Phys.Limit())
				}
			}},
		{"a fault plan gives each machine its own active injector", Options{FaultPlan: "swapva=0.5"}, machine.Config{},
			func(t *testing.T, m, m2 *machine.Machine) {
				if m.FaultInjector() == m2.FaultInjector() || !m.FaultInjector().Active() || !m2.FaultInjector().Active() {
					t.Errorf("injectors %p and %p (active %v, %v): want two distinct active injectors",
						m.FaultInjector(), m2.FaultInjector(), m.FaultInjector().Active(), m2.FaultInjector().Active())
				}
			}},
		{"trace arms a tracer per machine", Options{Trace: true}, machine.Config{},
			func(t *testing.T, m, m2 *machine.Machine) {
				if m.Tracer() == nil || m.Tracer() == m2.Tracer() {
					t.Errorf("tracers %p and %p: want two distinct armed tracers", m.Tracer(), m2.Tracer())
				}
			}},
		{"pool, watermarks and tier pass through", Options{}, machine.Config{PhysBytes: 16 << 20, Watermarks: wm, Swap: tier},
			func(t *testing.T, m, _ *machine.Machine) {
				if m.Phys.Limit() != 4096 || m.Phys.Watermarks() != wm || !m.SwapEnabled() || m.SwapTier().Config() != tier {
					t.Errorf("got %d frames, watermarks %+v, tier %+v; want 4096 frames, %+v, %+v",
						m.Phys.Limit(), m.Phys.Watermarks(), m.SwapTier().Config(), wm, tier)
				}
			}},
		{"options' tier arms no machine", Options{Swap: tier}, machine.Config{PhysBytes: 16 << 20},
			func(t *testing.T, m, _ *machine.Machine) {
				if m.SwapEnabled() {
					t.Error("Options.Swap armed a tier the shape did not ask for")
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ms [2]*machine.Machine
			for i := range ms {
				var err error
				if ms[i], err = c.opt.NewMachine(c.shape); err != nil {
					t.Fatal(err)
				}
			}
			c.check(t, ms[0], ms[1])
		})
	}
}

// TestTracedFigures runs traced quick sweeps of the figures that build
// their machines outside the run cache. Each must list one tracer per
// machine it built, holding events, and print its untraced golden.
func TestTracedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel microbenchmarks and oom1")
	}
	machines := map[string]int{
		"fig6": 2, "fig8": 2, "fig9": 4,
		"fig10": 24, // one machine per swept page count, 12 on each model
		"ext3":  2, "numa1": 4, "oom1": 6,
	}
	var exps []*Experiment
	for _, id := range []string{"fig6", "fig8", "fig9", "fig10", "ext3", "numa1", "oom1"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	opt := quickOpt
	opt.Trace = true
	RunExperiments(opt, exps, func(i int, res *Result, err error, _ float64) {
		id := exps[i].ID
		if err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Format(); got != string(want) {
			t.Errorf("traced %s differs from its untraced golden:\n%s", id, got)
		}
		if len(res.Traces) != machines[id] {
			t.Errorf("traced %s lists %d tracers, want one per machine: %d", id, len(res.Traces), machines[id])
		}
		if n := len(trace.ChromeTraceOf(res.Traces...).TraceEvents); n == 0 {
			t.Errorf("traced %s recorded no events", id)
		}
	})
}
