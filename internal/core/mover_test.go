package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// moverRig is a mover over one fresh address space of a traced Gold 6130
// machine with a fault injector (nil for an empty plan), and a context.
type moverRig struct {
	mv  Mover
	ctx *machine.Context
	tr  *trace.Tracer
}

func newMoverRig(t testing.TB, seed int64, plan fault.Plan) *moverRig {
	t.Helper()
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130(), Fault: fault.New(seed, plan)})
	tr := m.EnableTracing(0)
	return &moverRig{mv: Mover{Policy: DefaultPolicy(), K: kernel.New(m), AS: m.NewAddressSpace()},
		ctx: m.NewContext(0), tr: tr}
}

func mustPlan(t testing.TB, spec string) fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// region maps pages pages and fills page i with the byte fill+i.
func (r *moverRig) region(t testing.TB, pages int, fill byte) uint64 {
	t.Helper()
	va, err := r.mv.AS.MapRegion(pages)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		page := bytes.Repeat([]byte{fill + byte(i)}, mem.PageSize)
		if err := r.mv.AS.RawWrite(va+uint64(i)<<mem.PageShift, page); err != nil {
			t.Fatal(err)
		}
	}
	return va
}

func (r *moverRig) read(t testing.TB, va uint64, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	if err := r.mv.AS.RawRead(va, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// retryCharge sums the backoff the ladder charged, from its retry events.
func (r *moverRig) retryCharge() (total sim.Time) {
	for _, e := range r.tr.Merge() {
		if e.Kind == trace.KindRetry {
			total += e.Dur
		}
	}
	return total
}

// backoffSum is the charge of attempts 1..n at the ladder's schedule.
func backoffSum(n int) (total sim.Time) {
	for a := 1; a <= n; a++ {
		total += retryBackoffNs * sim.Time(int64(1)<<min(a-1, maxBackoffShift))
	}
	return total
}

// TestMoverRouting: Swaps is Algorithm 3's predicate: at least the
// threshold in whole pages, both ends page-aligned, and SwapVA enabled.
func TestMoverRouting(t *testing.T) {
	mv := Mover{Policy: DefaultPolicy()}
	const a, b = 0x10000, 0x40000
	for _, c := range []struct {
		name     string
		pol      MovePolicy
		length   int
		src, dst uint64
		want     bool
	}{
		{"large aligned", DefaultPolicy(), 12 * mem.PageSize, a, b, true},
		{"threshold rounds up", DefaultPolicy(), 9*mem.PageSize + 1, a, b, true},
		{"small", DefaultPolicy(), 2 * mem.PageSize, a, b, false},
		{"misaligned source", DefaultPolicy(), 12 * mem.PageSize, a + 8, b, false},
		{"misaligned destination", DefaultPolicy(), 12 * mem.PageSize, a, b + 8, false},
		{"memmove baseline", MemmovePolicy(), 12 * mem.PageSize, a, b, false},
	} {
		mv.Policy = c.pol
		if got := mv.Swaps(c.length, c.src, c.dst); got != c.want {
			t.Errorf("%s: Swaps = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMoverDeliversBytes: an object routed by Swaps arrives intact
// whichever way it moves, and the Perf counters show the way it took.
func TestMoverDeliversBytes(t *testing.T) {
	r := newMoverRig(t, 0, fault.Plan{})
	prop := func(pagesRaw uint8, fill byte) bool {
		pages := int(pagesRaw)%15 + 1
		length := pages*mem.PageSize - 24 // not an exact page multiple
		src, dst := r.region(t, pages, fill), r.region(t, pages, ^fill)
		want := r.read(t, src, length)
		before := *r.ctx.Perf
		var err error
		if r.mv.Swaps(length, src, dst) {
			err = r.mv.Swap(r.ctx, dst, src, pages, r.mv.Policy.Swap)
		} else {
			err = r.mv.K.Memmove(r.ctx, r.mv.AS, dst, src, length)
		}
		p := r.ctx.Perf
		swapped := p.SwapVACalls - before.SwapVACalls
		copied := p.MemmoveCalls - before.MemmoveCalls
		if wantSwap := pages >= DefaultThresholdPages; wantSwap != (swapped == 1 && copied == 0) {
			t.Logf("%d pages: %d SwapVA calls, %d memmoves", pages, swapped, copied)
			return false
		}
		return err == nil && bytes.Equal(r.read(t, dst, length), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBackoffCapBoundary: the backoff doubles per attempt up to
// base << maxBackoffShift and stays pinned there for every later attempt.
func TestBackoffCapBoundary(t *testing.T) {
	r := newMoverRig(t, 0, fault.Plan{})
	for attempt := 1; attempt <= maxBackoffShift+3; attempt++ {
		before := r.ctx.Clock.Now()
		if err := r.mv.backoff(r.ctx, attempt, 0x1000); err != nil {
			t.Fatal(err)
		}
		want := retryBackoffNs * sim.Time(int64(1)<<min(attempt-1, maxBackoffShift))
		if got := r.ctx.Clock.Now() - before; got != want {
			t.Errorf("attempt %d: backoff %v, want %v", attempt, got, want)
		}
	}
	if got := r.ctx.Perf.SwapRetries; got != uint64(maxBackoffShift+3) {
		t.Errorf("SwapRetries = %d, want %d", got, maxBackoffShift+3)
	}
}

// TestMoveObjectDegradesUnderSwapFaults: a large aligned object that
// Algorithm 3 routes to SwapVA still arrives when every swap faults; the
// ladder spends its retry budget and then memmoves it.
func TestMoveObjectDegradesUnderSwapFaults(t *testing.T) {
	r := newMoverRig(t, 7, mustPlan(t, "swapva=1"))
	const pages = 12
	src, dst := r.region(t, pages, 0x3c), r.region(t, pages, 0xc3)
	want := r.read(t, src, pages*mem.PageSize)
	if !r.mv.Swaps(len(want), src, dst) {
		t.Fatal("a 12-page aligned object is not routed to SwapVA")
	}
	if err := r.mv.Swap(r.ctx, dst, src, pages, r.mv.Policy.Swap); err != nil {
		t.Fatalf("degraded move returned %v, want no error", err)
	}
	if !bytes.Equal(r.read(t, dst, len(want)), want) {
		t.Error("degraded move did not deliver the source bytes")
	}
	p := r.ctx.Perf
	if p.SwapRetries != defaultRetries || p.SwapFallbacks != 1 || p.MemmoveCalls != 1 {
		t.Errorf("%d retries, %d fallbacks, %d memmove calls; want %d, 1, 1",
			p.SwapRetries, p.SwapFallbacks, p.MemmoveCalls, defaultRetries)
	}
}

// TestSwapOrCopy: a swap-armed move of a page span delivers its bytes on a
// healthy machine with one SwapVA call, and under a plan where every swap
// faults after the retry budget with one fallback to memmove.
func TestSwapOrCopy(t *testing.T) {
	const pages = 4
	for _, c := range []struct {
		name                 string
		plan                 string
		calls, retries, fall uint64
	}{
		{"healthy", "", 1, 0, 0},
		{"every swap faults", "swapva=1", defaultRetries + 1, defaultRetries, 1},
	} {
		r := newMoverRig(t, 7, mustPlan(t, c.plan))
		va1 := r.region(t, pages, 0)
		va2 := r.region(t, pages, 0xa5)
		want := r.read(t, va2, pages*mem.PageSize)
		if err := r.mv.Swap(r.ctx, va1, va2, pages, kernel.DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := r.read(t, va1, len(want))
		p := r.ctx.Perf
		if !bytes.Equal(got, want) || p.SwapVACalls != c.calls || p.SwapRetries != c.retries || p.SwapFallbacks != c.fall {
			t.Errorf("%s: bytes delivered %v, %d SwapVA calls, %d retries, %d fallbacks; want true, %d, %d, %d",
				c.name, bytes.Equal(got, want), p.SwapVACalls, p.SwapRetries, p.SwapFallbacks, c.calls, c.retries, c.fall)
		}
	}
}

var errProbe = errors.New("probe abort")

// TestMoverRungs drives each rung of the single-object ladder and checks
// its counters, its backoff charge and the error it returns.
func TestMoverRungs(t *testing.T) {
	const pages = 4
	for _, c := range []struct {
		name       string
		plan       string
		retries    int
		probeAt    int  // the probe aborts at this attempt (0 = never)
		reserve    bool // hold a one-frame reservation
		misaligned bool
		wantErr    error
		calls      uint64 // SwapVA calls
		retried    uint64 // Perf.SwapRetries, and attempts charged
		fallbacks  uint64
		reserved   uint64 // Perf.ReservedAllocs
		delivered  bool
	}{
		{name: "healthy", calls: 1, delivered: true},
		{name: "transient exhausts default budget", plan: "swapva=1",
			calls: defaultRetries + 1, retried: defaultRetries, fallbacks: 1, delivered: true},
		{name: "transient exhausts budget past the cap", plan: "swapva=1", retries: maxBackoffShift + 2,
			calls: maxBackoffShift + 3, retried: maxBackoffShift + 2, fallbacks: 1, delivered: true},
		{name: "poison degrades at once", plan: "poison=1",
			calls: 1, fallbacks: 1, delivered: true},
		{name: "degrade draws the reserve frame", plan: "poison=1", reserve: true,
			calls: 1, fallbacks: 1, reserved: 1, delivered: true},
		{name: "probe abort leaves the retry loop", plan: "swapva=1", probeAt: 2, wantErr: errProbe,
			calls: 2, retried: 2},
		{name: "structural error propagates", misaligned: true, wantErr: kernel.ErrMisaligned,
			calls: 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newMoverRig(t, 7, mustPlan(t, c.plan))
			r.mv.MaxRetries = c.retries
			if c.probeAt > 0 {
				r.mv.Probe = func(w *machine.Context, attempt int, va uint64) error {
					if attempt >= c.probeAt {
						return errProbe
					}
					return nil
				}
			}
			src, dst := r.region(t, pages, 0x10), r.region(t, pages, 0x80)
			want := r.read(t, src, pages*mem.PageSize)
			if c.reserve {
				if err := r.mv.AS.Phys.Reserve(1); err != nil {
					t.Fatal(err)
				}
			}
			if c.misaligned {
				dst += 8
			}
			t0 := r.ctx.Clock.Now()
			err := r.mv.Swap(r.ctx, dst, src, pages, kernel.DefaultOptions())
			if !errors.Is(err, c.wantErr) || (err != nil) != (c.wantErr != nil) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			p := r.ctx.Perf
			if p.SwapVACalls != c.calls || p.SwapRetries != c.retried ||
				p.SwapFallbacks != c.fallbacks || p.ReservedAllocs != c.reserved {
				t.Errorf("%d calls, %d retries, %d fallbacks, %d reserved allocs; want %d, %d, %d, %d",
					p.SwapVACalls, p.SwapRetries, p.SwapFallbacks, p.ReservedAllocs,
					c.calls, c.retried, c.fallbacks, c.reserved)
			}
			if got, want := r.retryCharge(), backoffSum(int(c.retried)); got != want {
				t.Errorf("backoff charged %v, want %v", got, want)
			}
			if elapsed := r.ctx.Clock.Now() - t0; c.calls == 0 && elapsed != 0 {
				t.Errorf("a refused call charged %v", elapsed)
			}
			if c.reserve && r.mv.AS.Phys.Reserved() != 1 {
				t.Errorf("reservation %d after the move, want 1", r.mv.AS.Phys.Reserved())
			}
			if c.delivered && !bytes.Equal(r.read(t, dst, len(want)), want) {
				t.Error("destination does not hold the source bytes")
			}
		})
	}
}

// TestMoverVecBudgetResetsAfterProgress: the retry budget belongs to the
// vector's head request. With a budget of one, a head that fails once,
// then succeeds while the next request fails, must hand that request a
// fresh retry instead of degrading it.
func TestMoverVecBudgetResetsAfterProgress(t *testing.T) {
	plan := mustPlan(t, "swapva=0.5")
	// One decision per page: the first call fails on request 0, the
	// second applies request 0 and fails on request 1, the third
	// applies requests 1 and 2.
	pattern := []bool{true, false, true, false, false}
	seed := int64(-1)
	for s := int64(1); s < 1000 && seed < 0; s++ {
		inj := fault.New(s, plan)
		match := true
		for _, fire := range pattern {
			match = match && inj.Fire(trace.FaultSwapTransient) == fire
		}
		if match {
			seed = s
		}
	}
	if seed < 0 {
		t.Fatal("no seed produces the fault pattern")
	}
	r := newMoverRig(t, seed, plan)
	r.mv.MaxRetries = 1
	type probe struct {
		attempt int
		va      uint64
	}
	var probes []probe
	r.mv.Probe = func(w *machine.Context, attempt int, va uint64) error {
		probes = append(probes, probe{attempt, va})
		return nil
	}
	src, dst := r.region(t, 3, 0x10), r.region(t, 3, 0x80)
	want := r.read(t, src, 3*mem.PageSize)
	reqs := make([]kernel.SwapReq, 3)
	for i := range reqs {
		off := uint64(i) << mem.PageShift
		reqs[i] = kernel.SwapReq{VA1: dst + off, VA2: src + off, Pages: 1}
	}
	if err := r.mv.SwapVec(r.ctx, reqs, kernel.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	wantProbes := []probe{{1, src}, {1, src + mem.PageSize}}
	if len(probes) != len(wantProbes) || probes[0] != wantProbes[0] || probes[1] != wantProbes[1] {
		t.Errorf("probes %v, want %v", probes, wantProbes)
	}
	p := r.ctx.Perf
	if p.SwapVACalls != 3 || p.SwapRetries != 2 || p.SwapFallbacks != 0 {
		t.Errorf("%d calls, %d retries, %d fallbacks; want 3, 2, 0", p.SwapVACalls, p.SwapRetries, p.SwapFallbacks)
	}
	if got, want := r.retryCharge(), 2*retryBackoffNs; got != want {
		t.Errorf("backoff charged %v, want %v", got, want)
	}
	if !bytes.Equal(r.read(t, dst, len(want)), want) {
		t.Error("destination does not hold the source bytes")
	}
}

// TestMoverAllocatesNothing: on a healthy machine a move is one kernel
// call and no host allocation, on either entry.
func TestMoverAllocatesNothing(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	mv := Mover{Policy: DefaultPolicy(), K: kernel.New(m), AS: m.NewAddressSpace()}
	ctx := m.NewContext(0)
	src, _ := mv.AS.MapRegion(64)
	dst, _ := mv.AS.MapRegion(64)
	reqs := make([]kernel.SwapReq, 8)
	for i := range reqs {
		off := uint64(8*i) << mem.PageShift
		reqs[i] = kernel.SwapReq{VA1: dst + off, VA2: src + off, Pages: 8}
	}
	opts := kernel.DefaultOptions()
	var err error
	if n := testing.AllocsPerRun(100, func() { err = mv.Swap(ctx, dst, src, 64, opts) }); n != 0 || err != nil {
		t.Errorf("Swap: %v allocs per move, err %v", n, err)
	}
	if n := testing.AllocsPerRun(100, func() { err = mv.SwapVec(ctx, reqs, opts) }); n != 0 || err != nil {
		t.Errorf("SwapVec: %v allocs per vector, err %v", n, err)
	}
}

// FuzzMoverVec checks the ladder against a host-side model of the pages:
// under random transient and poison faults and a random retry budget, a
// vector of disjoint requests moved by SwapVec, and the same requests
// moved by one Swap each, must each leave every destination page holding
// its source page's bytes, each source page arriving exactly once. No
// error may escape but a probe abort, and no request degrades twice.
func FuzzMoverVec(f *testing.F) {
	f.Add(int64(7), uint8(0), uint8(0), uint8(0), uint8(0), []byte{9, 3, 7})
	// Fails on its second request after applying the first: the head's
	// budget resets after progress.
	f.Add(int64(4), uint8(77), uint8(0), uint8(1), uint8(0), []byte{0, 0, 0, 0})
	f.Add(int64(11), uint8(255), uint8(0), uint8(2), uint8(0), []byte{1, 12, 5, 8, 0})
	f.Add(int64(3), uint8(40), uint8(60), uint8(0), uint8(0), []byte{7, 15, 2, 4, 6, 8, 10, 12, 14})
	f.Add(int64(5), uint8(200), uint8(0), uint8(5), uint8(3), []byte{2, 10, 4})
	f.Fuzz(func(t *testing.T, seed int64, swapRate, poisonRate, retries, abortAt uint8, shape []byte) {
		if len(shape) == 0 {
			return
		}
		shape = shape[:min(len(shape), 16)]
		var plan fault.Plan
		plan.Rate[trace.FaultSwapTransient] = float64(swapRate) / 255
		plan.Rate[trace.FaultFramePoison] = float64(poisonRate) / 255
		type result struct {
			dst  [][]byte // destination pages, request by request
			perf sim.Perf
			err  error
		}
		run := func(vec bool) result {
			r := newMoverRig(t, seed, plan)
			r.mv.MaxRetries = int(retries % 8)
			probes := 0
			r.mv.Probe = func(w *machine.Context, attempt int, va uint64) error {
				if probes++; abortAt > 0 && probes >= int(abortAt) {
					return errProbe
				}
				return nil
			}
			const slot = 8 // pages per request slot
			a, b := r.stamped(t, 16*slot), r.stamped(t, 16*slot)
			reqs := make([]kernel.SwapReq, len(shape))
			for i, s := range shape {
				off := uint64(i*slot) << mem.PageShift
				reqs[i] = kernel.SwapReq{VA1: b + off, VA2: a + off, Pages: int(s&7) + 1}
				if s&8 != 0 {
					reqs[i].VA1, reqs[i].VA2 = reqs[i].VA2, reqs[i].VA1
				}
			}
			var res result
			if vec {
				res.err = r.mv.SwapVec(r.ctx, reqs, kernel.DefaultOptions())
			} else {
				for _, q := range reqs {
					if res.err = r.mv.Swap(r.ctx, q.VA1, q.VA2, q.Pages, kernel.DefaultOptions()); res.err != nil {
						break
					}
				}
			}
			res.perf = *r.ctx.Perf
			if res.err != nil {
				return res
			}
			arrived := map[uint64]int{} // source page VA -> arrivals
			for _, q := range reqs {
				for p := 0; p < q.Pages; p++ {
					off := uint64(p) << mem.PageShift
					page := r.read(t, q.VA1+off, mem.PageSize)
					if !bytes.Equal(page, stamp(q.VA2+off)) {
						t.Fatalf("vec=%v: page %#x does not hold source page %#x", vec, q.VA1+off, q.VA2+off)
					}
					arrived[binary.LittleEndian.Uint64(page)]++
					res.dst = append(res.dst, page)
				}
			}
			for va, n := range arrived {
				if n != 1 {
					t.Fatalf("vec=%v: source page %#x arrived %d times", vec, va, n)
				}
			}
			return res
		}
		vec, each := run(true), run(false)
		for _, res := range []result{vec, each} {
			if res.err != nil && !errors.Is(res.err, errProbe) {
				t.Fatalf("error escaped the ladder: %v", res.err)
			}
			if res.perf.SwapFallbacks > uint64(len(shape)) {
				t.Fatalf("%d fallbacks for %d requests", res.perf.SwapFallbacks, len(shape))
			}
		}
		if vec.err == nil && each.err == nil {
			for i := range vec.dst {
				if !bytes.Equal(vec.dst[i], each.dst[i]) {
					t.Fatalf("SwapVec and Swap disagree on destination page %d", i)
				}
			}
		}
	})
}

// stamp is the content of the page at va before any move: its address,
// then a byte pattern seeded by it.
func stamp(va uint64) []byte {
	page := make([]byte, mem.PageSize)
	binary.LittleEndian.PutUint64(page, va)
	for i := 8; i < len(page); i++ {
		page[i] = byte(va>>mem.PageShift) ^ byte(i)
	}
	return page
}

// stamped maps pages pages, each holding its stamp.
func (r *moverRig) stamped(t testing.TB, pages int) uint64 {
	t.Helper()
	va, err := r.mv.AS.MapRegion(pages)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		pva := va + uint64(p)<<mem.PageShift
		if err := r.mv.AS.RawWrite(pva, stamp(pva)); err != nil {
			t.Fatal(err)
		}
	}
	return va
}
