package bench

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Flags are the command-line flags svagc and gcbench share: the simulated
// testbed (cost model, GC threads, seed, sockets, fault plan, swap tier),
// the machine slots and the observability outputs. Both commands bind
// them with RegisterFlags, so they accept and reject the same values.
type Flags struct {
	machine, numaPolicy, faultPlan, trace, metrics string
	gcWorkers, parallel, sockets                   int
	seed, faultSeed, swapTier, zpool, farLat       int64
	faultRate                                      float64
}

// RegisterFlags registers the shared flags on fs. Parse fs, then call
// Options.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.machine, "machine", "", "cost model: gold6130, gold6240, i5-7600 or gold6130-nvm (default gold6130, or the machine a figure was measured on)")
	fs.IntVar(&f.gcWorkers, "gcworkers", 4, "GC threads per JVM")
	fs.Int64Var(&f.seed, "seed", 42, "workload seed (nonzero)")
	fs.IntVar(&f.parallel, "parallel", runtime.GOMAXPROCS(0), "machines simulated at once (1 = one at a time); output, -trace and -metrics are byte-identical at any setting")
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace_event JSON of every machine run, in input order (load in chrome://tracing or Perfetto)")
	fs.StringVar(&f.metrics, "metrics", "", "write a Prometheus text-format metrics snapshot of every machine run")
	fs.IntVar(&f.sockets, "sockets", 1, "sockets (NUMA nodes) the simulated cores are split over")
	fs.StringVar(&f.numaPolicy, "numa-policy", "", "page placement on multi-socket machines: first-touch, interleave, or bind[:N]")
	fs.StringVar(&f.faultPlan, "fault-plan", "", "fault-injection plan: comma-separated site=rate (sites: pte-lock, ipi-ack, swapva, poison, interconnect, far-write, all), e.g. 'swapva=0.01,poison=1e-4'")
	fs.Float64Var(&f.faultRate, "fault-rate", 0, "uniform fault rate applied to every site (per-site -fault-plan entries override it)")
	fs.Int64Var(&f.faultSeed, "fault-seed", 0, "fault-injection seed; the same seed and plan replay the identical fault sequence (0 = workload seed)")
	fs.Int64Var(&f.swapTier, "swap-tier", 0, "far (NVMe) swap-tier capacity in MiB (0 with -zpool 0 = no tier override)")
	fs.Int64Var(&f.zpool, "zpool", 0, "compressed-RAM zpool budget in MiB in front of the far tier")
	fs.Int64Var(&f.farLat, "far-lat", 0, "far-device access latency in ns (0 = default 10000)")
	return f
}

// Options validates the parsed flags into Options. An error names the
// flag at fault; the commands exit 2 on it, before building a machine.
func (f *Flags) Options() (Options, error) {
	// Below 1 the collectors and the topology would run a default the
	// output does not show; seed 0 would mean the default seed to some
	// runs and seed 0 to others.
	switch {
	case f.gcWorkers < 1:
		return Options{}, errors.New("-gcworkers must be at least 1")
	case f.seed == 0:
		return Options{}, errors.New("-seed must be nonzero")
	case f.sockets < 1:
		return Options{}, errors.New("-sockets must be at least 1")
	}
	opt := Options{GCWorkers: f.gcWorkers, Seed: f.seed, Sockets: f.sockets,
		Parallel: f.parallel, Trace: f.trace != "" || f.metrics != "",
		FaultPlan: f.faultPlan, FaultRate: f.faultRate, FaultSeed: f.faultSeed,
		Swap: swaptier.Config{FarBytes: f.swapTier << 20, ZpoolBytes: f.zpool << 20, FarLatNs: sim.Time(f.farLat)}}
	var err error
	if f.machine != "" {
		if opt.Cost, err = sim.ModelByName(f.machine); err != nil {
			return Options{}, fmt.Errorf("-machine: %w", err)
		}
	}
	if opt.NUMAPolicy, opt.NUMABind, err = topology.ParsePolicy(f.numaPolicy); err != nil {
		return Options{}, fmt.Errorf("-numa-policy: %w", err)
	}
	if _, err := fault.ParsePlanWithRate(f.faultPlan, f.faultRate); err != nil {
		return Options{}, fmt.Errorf("-fault-plan/-fault-rate: %w", err)
	}
	if err := opt.Swap.Validate(); err != nil {
		return Options{}, fmt.Errorf("-swap-tier/-zpool/-far-lat: %w", err)
	}
	return opt, nil
}

// Finish ends a command's run. It prints the harness line to stderr: the
// machine runs since process start (HarnessStats), the simulated time
// they covered and the host wall time since start. Then it writes -trace
// and -metrics, combining tracers in the order given.
func (f *Flags) Finish(start time.Time, tracers []*trace.Tracer) error {
	wall := time.Since(start).Seconds()
	runs, simNs := HarnessStats()
	fmt.Fprintf(os.Stderr,
		"harness: %d machine runs, %.3fs simulated in %.1fs wall — %.0f sim-ns/host-ms, %.2f runs/s, parallel=%d\n",
		runs, simNs.Seconds(), wall, float64(simNs)/(wall*1e3), float64(runs)/wall, max(f.parallel, 1))
	if f.trace != "" {
		if err := writeFile(f.trace, trace.ChromeTraceOf(tracers...).Write); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if f.metrics != "" {
		if err := writeFile(f.metrics, trace.SnapshotOf(tracers...).WritePrometheus); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// writeFile streams write into path, closing cleanly on error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
