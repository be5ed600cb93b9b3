package bench

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/topology"
)

// parseShared parses args with only the shared flags registered.
func parseShared(t *testing.T, args ...string) (Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f.Options()
}

// TestFlagsRejectOutOfRange: every value the binding rejects, one case
// each, fails with an error naming its flag, so both commands exit 2 on
// it before building a machine.
func TestFlagsRejectOutOfRange(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-seed", "0"}, "-seed"},
		{[]string{"-sockets", "0"}, "-sockets"},
		{[]string{"-sockets", "-3"}, "-sockets"},
		{[]string{"-gcworkers", "0"}, "-gcworkers"},
		{[]string{"-machine", "pentium"}, "-machine"},
		{[]string{"-numa-policy", "scatter"}, "-numa-policy"},
		{[]string{"-fault-plan", "swapva"}, "-fault-plan"},
		{[]string{"-fault-rate", "2"}, "-fault-rate"},
		{[]string{"-swap-tier", "-1"}, "-swap-tier"},
		{[]string{"-zpool", "-1"}, "-zpool"},
		{[]string{"-far-lat", "-1"}, "-far-lat"},
	} {
		if _, err := parseShared(t, c.args...); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%q: err = %v, want one naming %s", c.args, err, c.flag)
		}
	}
}

// TestFlagsOptions: the defaults are the zero-config testbed every figure
// was calibrated on, and each flag lands in its Options field.
func TestFlagsOptions(t *testing.T) {
	def, err := parseShared(t)
	if err != nil {
		t.Fatal(err)
	}
	if def.Cost != nil || def.GCWorkers != 4 || def.Seed != 42 || def.Sockets != 1 ||
		def.Trace || def.Swap.Enabled() || def.FaultPlan != "" || def.FaultRate != 0 {
		t.Errorf("defaults: %+v", def)
	}
	if m, err := def.NewMachine(machine.Config{}); err != nil || m.FaultInjector() != nil {
		t.Errorf("default machine: %v, fault injector %v; want none", err, m.FaultInjector())
	}
	o, err := parseShared(t, "-machine", "i5-7600", "-gcworkers", "2", "-seed", "7",
		"-parallel", "3", "-metrics", "m.prom", "-sockets", "2", "-numa-policy", "bind:1",
		"-fault-plan", "swapva=0.1", "-fault-rate", "0.01", "-fault-seed", "9",
		"-swap-tier", "64", "-zpool", "4", "-far-lat", "20000")
	if err != nil {
		t.Fatal(err)
	}
	if o.cost().Name != "CoreI5-7600" || o.GCWorkers != 2 || o.Seed != 7 || o.Parallel != 3 ||
		!o.Trace || o.Sockets != 2 || o.NUMAPolicy != topology.PolicyBind || o.NUMABind != 1 ||
		o.FaultPlan != "swapva=0.1" || o.FaultRate != 0.01 || o.FaultSeed != 9 ||
		o.Swap.FarBytes != 64<<20 || o.Swap.ZpoolBytes != 4<<20 || o.Swap.FarLatNs != 20000 {
		t.Errorf("flags not carried: %+v", o)
	}
}

// TestSMRCellCountsElapsed: an smr1 cell reports the simulated time its
// cluster covered, so smr1 machines count in HarnessStats, and the value
// replays by seed.
func TestSMRCellCountsElapsed(t *testing.T) {
	opt := Options{Quick: true, Seed: 7}
	a, _, err := smrOne(opt, jvm.CollectorSVAGC, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := smrOne(opt, jvm.CollectorSVAGC, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed <= 0 || a.Elapsed != b.Elapsed {
		t.Errorf("elapsed %v then %v, want equal and > 0", a.Elapsed, b.Elapsed)
	}
}
