package workloads

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"FFT.large", "FFT.large/8", "FFT.large/16",
		"Sparse.large", "Sparse.large/2", "Sparse.large/4",
		"SOR.large x10", "LU.large", "Compress", "Sigverify",
		"CryptoAES", "PageRank (PR)", "Bisort", "Parallelsort", "LRUCache",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Sigverify")
	if err != nil || s.Name != "Sigverify" {
		t.Fatalf("ByName: %v %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTableIIFieldsPopulated(t *testing.T) {
	// Table II documents suite, thread count and heap range; every spec
	// must carry them plus a sane scaled configuration.
	for _, s := range Registry() {
		if s.Suite == "" || s.PaperHeap == "" || s.PaperThreads <= 0 {
			t.Errorf("%s: Table II fields missing: %+v", s.Name, s)
		}
		if s.Threads <= 0 || s.Threads > 32 {
			t.Errorf("%s: scaled threads %d out of range", s.Name, s.Threads)
		}
		if s.MinHeapBytes < 1<<20 || s.MinHeapBytes > 256<<20 {
			t.Errorf("%s: MinHeapBytes %d not laptop-scale", s.Name, s.MinHeapBytes)
		}
		if s.Run == nil {
			t.Errorf("%s: no Run", s.Name)
		}
	}
}

func TestMinHeapFactor(t *testing.T) {
	s := &Spec{MinHeapBytes: 1000}
	if s.MinHeap(1.2) != 1200 || s.MinHeap(2) != 2000 {
		t.Error("MinHeap factor arithmetic wrong")
	}
}

func TestFFTVariantsPanicOnBadDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FFTLarge(3)
}

func TestSparseVariantsPanicOnBadDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SparseLarge(3)
}

// runOn executes a spec under the given collector preset at the given
// heap factor, returning the JVM for inspection.
func runOn(t *testing.T, s *Spec, collector string, factor float64) *jvm.JVM {
	t.Helper()
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	cfg, ok := jvm.ConfigFor(collector, s.MinHeap(factor), s.Threads, 4)
	if !ok {
		t.Fatalf("unknown collector %q", collector)
	}
	j, err := jvm.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(j, 42); err != nil {
		t.Fatalf("%s on %s: %v", s.Name, collector, err)
	}
	return j
}

// TestAllWorkloadsRunUnderSVAGC is the suite-wide integration test: every
// benchmark completes (its internal self-checks pass across collections)
// at 1.2x minimum heap, experiences at least one GC, and leaves a
// consistent heap.
func TestAllWorkloadsRunUnderSVAGC(t *testing.T) {
	for _, s := range Registry() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			j := runOn(t, s, jvm.CollectorSVAGC, 1.2)
			if j.GCCount("") == 0 {
				t.Errorf("%s: no GC at 1.2x min heap", s.Name)
			}
			if j.MutatorTime() <= 0 {
				t.Error("no mutator time accrued")
			}
			for i := 0; i < j.Threads(); i++ {
				th := j.Thread(i)
				if err := th.TLAB.Retire(j.Heap, th.Ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Heap.VerifyWalkable(); err != nil {
				t.Error(err)
			}
		})
	}
}

// The baselines must also complete every workload (the graphs they manage
// are identical; only pause behaviour differs).
func TestWorkloadsRunUnderBaselines(t *testing.T) {
	// A representative subset keeps the test quick while covering the
	// large-object, small-object and mixed cases.
	names := []string{"Sparse.large/4", "Sigverify", "Bisort", "LRUCache"}
	for _, collector := range []string{jvm.CollectorSVAGCBase, jvm.CollectorParallel, jvm.CollectorShen} {
		for _, name := range names {
			s, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(collector+"/"+name, func(t *testing.T) {
				j := runOn(t, s, collector, 1.3)
				if j.GCCount("") == 0 {
					t.Errorf("no GC under %s", collector)
				}
			})
		}
	}
}

// Large-object workloads must actually exercise SwapVA under SVAGC, and
// the small-object workload must not.
func TestSwapVAUsageByWorkloadShape(t *testing.T) {
	sig, _ := ByName("Sigverify")
	j := runOn(t, sig, jvm.CollectorSVAGC, 1.2)
	if p := j.TotalPerf(); p.PagesSwapped == 0 {
		t.Error("Sigverify (1 MiB objects) swapped no pages")
	}
	bis, _ := ByName("Bisort")
	j = runOn(t, bis, jvm.CollectorSVAGC, 1.2)
	if p := j.TotalPerf(); p.PagesSwapped != 0 {
		t.Errorf("Bisort (small objects) swapped %d pages", p.PagesSwapped)
	}
}

// GC determinism: the same workload and seed produce identical pause
// statistics run-to-run.
func TestDeterminism(t *testing.T) {
	s, _ := ByName("Sparse.large/4")
	a := runOn(t, s, jvm.CollectorSVAGC, 1.2)
	b := runOn(t, s, jvm.CollectorSVAGC, 1.2)
	if a.GCCount("") != b.GCCount("") {
		t.Fatalf("GC counts differ: %d vs %d", a.GCCount(""), b.GCCount(""))
	}
	if a.GCPauseTime() != b.GCPauseTime() {
		t.Errorf("pause totals differ: %v vs %v", a.GCPauseTime(), b.GCPauseTime())
	}
	if a.AppTime() != b.AppTime() {
		t.Errorf("app times differ: %v vs %v", a.AppTime(), b.AppTime())
	}
}

// Doubling the heap must reduce GC count (the Fig. 12/16 mechanism).
func TestBiggerHeapFewerGCs(t *testing.T) {
	s, _ := ByName("Compress")
	tight := runOn(t, s, jvm.CollectorSVAGC, 1.2)
	roomy := runOn(t, s, jvm.CollectorSVAGC, 2.0)
	if roomy.GCCount("") >= tight.GCCount("") {
		t.Errorf("2x heap had %d GCs, 1.2x had %d", roomy.GCCount(""), tight.GCCount(""))
	}
}

// The helpers used across kernels.
func TestChecksumAndFillHelpers(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	cfg, _ := jvm.ConfigFor(jvm.CollectorSVAGC, 4<<20, 1, 2)
	j, err := jvm.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	r, err := th.AllocRooted(heap.AllocSpec{Payload: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := fillPayload(th, r.Obj, 0, 4096, 7); err != nil {
		t.Fatal(err)
	}
	c1, err := checksum(th, r.Obj, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := checksum(th, r.Obj, 0, 4096)
	if c1 != c2 || c1 == 0 {
		t.Errorf("checksum unstable: %x vs %x", c1, c2)
	}
	if err := fillPayload(th, r.Obj, 0, 4096, 8); err != nil {
		t.Fatal(err)
	}
	if c3, _ := checksum(th, r.Obj, 0, 4096); c3 == c1 {
		t.Error("different fill produced same checksum")
	}

	// Float round trip.
	vals := []float64{1.5, -2.25, 3.75}
	if err := writeFloats(th, r.Obj, 0, 64, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	if err := readFloats(th, r.Obj, 0, 64, got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("float round trip [%d] = %v", i, got[i])
		}
	}
}

func TestRunThreadsPropagatesErrors(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	cfg, _ := jvm.ConfigFor(jvm.CollectorSVAGC, 4<<20, 3, 2)
	j, _ := jvm.New(m, cfg)
	calls := 0
	err := runThreads(j, func(th *jvm.Thread, rng *rand.Rand) error {
		calls++
		if th.ID == 1 {
			return errSentinel
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "thread 1") {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Errorf("ran %d threads before stopping, want 2", calls)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

// Parallelsort's host buffers live in one sortScratch per Run call: once
// the first round has sized them, a later round reuses every backing
// array rather than allocating its own.
func TestParallelsortScratchReuse(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	cfg, _ := jvm.ConfigFor(jvm.CollectorSVAGC, 8<<20, 1, 2)
	j, err := jvm.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	rng := rand.New(rand.NewSource(3))
	var sc sortScratch
	backing := func() [5]*uint64 {
		return [5]*uint64{&sc.vals[0], &sc.tmp[0], &sc.av[0], &sc.bv[0], &sc.out[0]}
	}
	if err := parallelsortThread(th, rng, &sc, 4, 1024, false); err != nil {
		t.Fatal(err)
	}
	first := backing()
	for r := 0; r < 2; r++ {
		if err := parallelsortThread(th, rng, &sc, 4, 1024, false); err != nil {
			t.Fatal(err)
		}
		if got := backing(); got != first {
			t.Fatalf("round %d reallocated scratch: %v, first round %v", r+2, got, first)
		}
	}
}
