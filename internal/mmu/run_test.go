package mmu

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// runFixture is one (address space, env) pair with a small LLC, mapped
// over enough pages for multi-page runs. A non-nil sw arms the space
// first, so its pages map demand-zero and fault in through sw.
func runFixture(t *testing.T, sw *testSwapper) (*AddressSpace, *Env) {
	t.Helper()
	as := NewAddressSpace(1, mem.NewPhysMem(0))
	if sw != nil {
		as.SetSwapper(sw)
	}
	if err := as.Map(MmapBase, 16); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(sim.XeonGold6130())
	env.Cache = cache.MustNew(1<<15, 8, 64) // small: long runs wrap and evict
	return as, env
}

// runOps is a mixed sequence exercising every settlement case: dense
// single-line, dense multi-page, strided within a page, strided across
// pages, charge-only, data-moving reads and writes, reads of just-written
// lines (cache hits), and a run long enough to wrap the small LLC.
type runOp struct {
	run  Run
	data bool // move data (ReadRun/WriteRun) instead of charge-only
}

func runOps() []runOp {
	return []runOp{
		{run: Run{VA: MmapBase, Words: 3, Write: true}, data: true},
		{run: Run{VA: MmapBase, Words: 3}, data: true},
		{run: Run{VA: MmapBase + 64, Words: 700, Write: true}}, // dense, crosses a page
		{run: Run{VA: MmapBase + 64, Words: 700}},              // re-read: mixed hits
		{run: Run{VA: MmapBase, Stride: 64, Words: 200}},       // line-strided, 4 pages
		{run: Run{VA: MmapBase + 8, Stride: 136, Words: 77, Write: true}},
		{run: Run{VA: MmapBase, Stride: 64, Words: 200}}, // re-scan of warm lines
		{run: Run{VA: MmapBase + 16, Stride: 72, Words: 150, Write: true}},
		{run: Run{VA: MmapBase + 2*64, Words: 1}},
		{run: Run{VA: MmapBase, Words: 0}},
		{run: Run{VA: MmapBase, Words: 6000, Write: true}, data: true}, // wraps the LLC
		{run: Run{VA: MmapBase + 8192, Words: 512}, data: true},
	}
}

// applyOps executes the op sequence on one fixture through the run API,
// returning every word the data-moving reads observed.
func applyOps(t *testing.T, as *AddressSpace, env *Env, ops []runOp) []uint64 {
	t.Helper()
	return applyOpsWith(t, settleAPI, as, env, ops)
}

// settleAPI settles a run through ChargeRun (data == nil), WriteRun or
// ReadRun.
func settleAPI(as *AddressSpace, env *Env, r Run, data []uint64) error {
	switch {
	case data == nil:
		return as.ChargeRun(env, r)
	case r.Write:
		return as.WriteRun(env, r.VA, data)
	default:
		return as.ReadRun(env, r.VA, data)
	}
}

// applyOpsWith is applyOps with the settlement routine as a parameter.
func applyOpsWith(t *testing.T, settle func(*AddressSpace, *Env, Run, []uint64) error,
	as *AddressSpace, env *Env, ops []runOp) []uint64 {
	t.Helper()
	var observed []uint64
	for i, op := range ops {
		var buf []uint64
		if op.data {
			buf = make([]uint64, op.run.Words)
			if op.run.Write {
				for j := range buf {
					buf[j] = uint64(i)<<32 | uint64(j)
				}
			}
		}
		if err := settle(as, env, op.run, buf); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if op.data && !op.run.Write {
			observed = append(observed, buf...)
		}
	}
	return observed
}

// settleFixture is one side of a parity comparison: a fixture after an
// op sequence, with the words its data-moving reads observed.
type settleFixture struct {
	as  *AddressSpace
	env *Env
	obs []uint64
}

// checkSettleParity asserts that a fixture settled through the run API
// (b) and one settled through the per-word reference (e) ended in the
// same state: the clock, every counter, the observed data, and the cache
// and TLB state as seen by a follow-up per-word probe sweep.
func checkSettleParity(t *testing.T, b, e settleFixture) {
	t.Helper()
	if got, want := b.env.Clock.Now(), e.env.Clock.Now(); got != want {
		t.Errorf("clock diverges: batched %v, exact %v (delta %g)", got, want, float64(got-want))
	}
	if len(b.obs) != len(e.obs) {
		t.Fatalf("observed %d words batched, %d exact", len(b.obs), len(e.obs))
	}
	for i := range b.obs {
		if b.obs[i] != e.obs[i] {
			t.Fatalf("data diverges at word %d: %#x vs %#x", i, b.obs[i], e.obs[i])
		}
	}
	if *b.env.Perf != *e.env.Perf {
		t.Errorf("perf diverges:\nbatched: %+v\nexact:   %+v", *b.env.Perf, *e.env.Perf)
	}

	// The cache and TLB must have evolved identically too: a fresh
	// per-word probe sequence must see the same hits on both fixtures.
	for i := 0; i < 512; i++ {
		va := MmapBase + uint64(i*104)&^7
		paB, err := b.as.Translate(b.env, va)
		if err != nil {
			t.Fatal(err)
		}
		paE, err := e.as.Translate(e.env, va)
		if err != nil {
			t.Fatal(err)
		}
		if hb, he := b.env.Cache.Access(paB), e.env.Cache.Access(paE); hb != he {
			t.Fatalf("cache state diverges at probe %d (va %#x): batched hit=%v, exact hit=%v",
				i, va, hb, he)
		}
	}
	if b.env.Perf.TLBMisses != e.env.Perf.TLBMisses {
		t.Errorf("TLB state diverges: %d vs %d misses after probing",
			b.env.Perf.TLBMisses, e.env.Perf.TLBMisses)
	}
}

// TestRunBatchedMatchesExact is the core parity property: the same run
// sequence over identically-mapped spaces leaves an env settled in
// closed form and one settled by the per-word reference (refRun) with
// the identical clock, counters, observed data and subsequent cache
// behaviour.
func TestRunBatchedMatchesExact(t *testing.T) {
	asB, envB := runFixture(t, nil)
	asE, envE := runFixture(t, nil)
	obsB := applyOps(t, asB, envB, runOps())
	obsE := applyOpsWith(t, refRun, asE, envE, runOps())
	checkSettleParity(t, settleFixture{asB, envB, obsB}, settleFixture{asE, envE, obsE})
}

// fuzzOpBytes is the encoded size of one FuzzSettleRun op.
const fuzzOpBytes = 6

// decodeFuzzOps turns fuzz input into a run sequence over runFixture's
// mapped span. Each op is six bytes: flags (bit 0 strided, bit 1 write,
// bit 2 data-moving), a 16-bit VA offset, a stride multiple, and a 16-bit
// word count, each reduced modulo what fits in the span. Data-moving ops
// are dense, because ReadRun/WriteRun are.
func decodeFuzzOps(data []byte) []runOp {
	const span = 16 * 4096 // runFixture's mapped bytes
	var ops []runOp
	for ; len(data) >= fuzzOpBytes && len(ops) < 64; data = data[fuzzOpBytes:] {
		flags := data[0]
		off := int(uint16(data[1])|uint16(data[2])<<8) % (span / 2) &^ 7
		r := Run{VA: MmapBase + uint64(off), Write: flags&2 != 0}
		if flags&1 != 0 {
			r.Stride = 8 * (1 + int(data[3]%32))
		}
		r.Words = int(uint16(data[4])|uint16(data[5])<<8) % ((span-off)/r.stride() + 1)
		ops = append(ops, runOp{run: r, data: r.Stride == 0 && flags&4 != 0})
	}
	return ops
}

// FuzzSettleRun checks closed-form settlement against the unfused
// per-word reference (refRun) on arbitrary op sequences: dense and
// strided, charge-only and data-moving, with and without remote NUMA
// pages, with and without demand paging. The first input byte selects
// the mode: bit 1 the NUMA view, bit 2 a swap-armed space whose pages
// fault in through testSwapper, four resident at most, so long runs
// evict their own earlier pages and re-reads fault them in again (bit 0
// once picked a cache locking mode and is ignored, so the checked-in
// corpus keeps its meaning). The rest decodes as ops (decodeFuzzOps).
func FuzzSettleRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, ops := data[0], decodeFuzzOps(data[1:])
		var swB, swE *testSwapper
		if mode&4 != 0 {
			swB, swE = &testSwapper{maxResident: 4}, &testSwapper{maxResident: 4}
		}
		asB, envB := runFixture(t, swB)
		asE, envE := runFixture(t, swE)
		numaB, numaE := &fakeNUMA{}, &fakeNUMA{}
		if mode&2 != 0 {
			envB.NUMA, envE.NUMA = numaB, numaE
		}
		obsB := applyOps(t, asB, envB, ops)
		obsE := applyOpsWith(t, refRun, asE, envE, ops)
		checkSettleParity(t, settleFixture{asB, envB, obsB}, settleFixture{asE, envE, obsE})
		if *numaB != *numaE {
			t.Errorf("NUMA view counts diverge: batched %+v, exact %+v", *numaB, *numaE)
		}
		if swB != nil && swB.pageIns != swE.pageIns {
			t.Errorf("page-ins diverge: batched %d, exact %d", swB.pageIns, swE.pageIns)
		}
	})
}

// TestRunHugeChargesMatchExact: a cost model whose per-word charges are
// too large for a page segment's total to fit one Ticks sum settles
// charge by charge, still bit-identical to the unfused reference.
func TestRunHugeChargesMatchExact(t *testing.T) {
	cost := *sim.XeonGold6130()
	cost.DRAMAccessNs = 5e6 // 5 ms a miss: past segmentTickLimit
	asB, envB := runFixture(t, nil)
	asE, envE := runFixture(t, nil)
	envB.Cost, envE.Cost = &cost, &cost
	if sim.ToTicks(cost.DRAMAccessNs) < segmentTickLimit {
		t.Fatal("miss charge below segmentTickLimit: the test no longer reaches the one-by-one path")
	}
	obsB := applyOps(t, asB, envB, runOps())
	obsE := applyOpsWith(t, refRun, asE, envE, runOps())
	checkSettleParity(t, settleFixture{asB, envB, obsB}, settleFixture{asE, envE, obsE})
}

// TestRunSplitPointsProperty: settling one long run in arbitrary
// contiguous pieces — including splits in the middle of a page — must be
// bit-identical to the per-word reference settling it whole. Only the
// run count itself may differ. This is the property that makes
// "epoch-batched" well-defined: where the epoch boundaries land cannot
// matter.
func TestRunSplitPointsProperty(t *testing.T) {
	const words = 5000
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	asWhole, envWhole := runFixture(t, nil)
	if err := refRun(asWhole, envWhole, Run{VA: MmapBase, Words: words, Write: true}, nil); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		asSplit, envSplit := runFixture(t, nil)
		va, left := uint64(MmapBase), words
		for left > 0 {
			n := 1 + rng.Intn(left)
			if err := asSplit.ChargeRun(envSplit, Run{VA: va, Words: n, Write: true}); err != nil {
				t.Fatal(err)
			}
			va += uint64(8 * n)
			left -= n
		}
		if got, want := envSplit.Clock.Now(), envWhole.Clock.Now(); got != want {
			t.Errorf("seed=%d trial %d: clock %v split vs %v whole", seed, trial, got, want)
		}
		pS, pW := *envSplit.Perf, *envWhole.Perf
		pS.ChargeRuns, pW.ChargeRuns = 0, 0
		if pS != pW {
			t.Errorf("seed=%d trial %d: perf diverges:\nsplit: %+v\nwhole: %+v",
				seed, trial, pS, pW)
		}
	}
}

// fakeNUMA routes odd frames remote, with distinct local/remote
// latencies, and counts accesses the way machine.NUMAView does — the
// contract LatencyAtN documents (n calls' worth of counting).
type fakeNUMA struct {
	local, remote int
}

func (f *fakeNUMA) isLocal(pa uint64) bool { return (pa>>mem.PageShift)%2 == 0 }

func (f *fakeNUMA) LatencyAt(pa uint64) float64 {
	if f.isLocal(pa) {
		f.local++
		return 61
	}
	f.remote++
	return 139
}

func (f *fakeNUMA) BWAt(pa uint64, n int) float64 { return 10 }

func (f *fakeNUMA) LocalAt(pa uint64) bool { return f.isLocal(pa) }

func (f *fakeNUMA) LatencyAtN(pa uint64, n int) float64 {
	f.local += n
	return 61
}

// TestRunNUMARemoteFallsBackPerWord: on a NUMA env, node-local page
// segments settle in closed form while cross-socket segments take the
// per-word loop — and the result is still bit-identical to the per-word
// reference, side-effect counts on the NUMA view included.
func TestRunNUMARemoteFallsBackPerWord(t *testing.T) {
	asB, envB := runFixture(t, nil)
	asE, envE := runFixture(t, nil)
	numaB, numaE := &fakeNUMA{}, &fakeNUMA{}
	envB.NUMA, envE.NUMA = numaB, numaE

	ops := []runOp{
		{run: Run{VA: MmapBase, Words: 1500, Write: true}, data: true}, // ~3 pages: local, remote, local
		{run: Run{VA: MmapBase + 512, Stride: 96, Words: 300}},
		{run: Run{VA: MmapBase, Words: 1500}, data: true},
	}
	obsB := applyOps(t, asB, envB, ops)
	obsE := applyOpsWith(t, refRun, asE, envE, ops)
	if numaB.remote == 0 {
		t.Error("test never exercised the remote fallback (no remote accesses)")
	}
	checkSettleParity(t, settleFixture{asB, envB, obsB}, settleFixture{asE, envE, obsE})
	if *numaB != *numaE {
		t.Errorf("NUMA view counts diverge: batched %+v, exact %+v", *numaB, *numaE)
	}
}

// TestRunValidation: malformed runs are rejected before any charging.
func TestRunValidation(t *testing.T) {
	as, env := runFixture(t, nil)
	bad := []Run{
		{VA: MmapBase + 4, Words: 1},         // misaligned VA
		{VA: MmapBase, Stride: 12, Words: 2}, // stride not a multiple of 8
		{VA: MmapBase, Stride: -8, Words: 2}, // negative stride
		{VA: MmapBase, Words: -1},            // negative count
	}
	for _, r := range bad {
		if err := as.ChargeRun(env, r); err == nil {
			t.Errorf("run %+v accepted, want error", r)
		}
	}
	if env.Clock.Now() != 0 {
		t.Errorf("rejected runs advanced the clock to %v", env.Clock.Now())
	}
	if err := as.ReadRun(env, MmapBase+4, make([]uint64, 1)); err == nil {
		t.Error("misaligned ReadRun accepted")
	}
	if err := as.WriteRun(env, MmapBase+4, make([]uint64, 1)); err == nil {
		t.Error("misaligned WriteRun accepted")
	}
}

// BenchmarkChargeRun is the regression benchmark for run settlement —
// the single hottest entry in the simulator. CI runs it so a change that
// slows settlePage, or makes it allocate, shows up as a step change.
func BenchmarkChargeRun(b *testing.B) {
	fixture := func(b *testing.B, pages int, llc *cache.Cache) (*AddressSpace, *Env) {
		as := NewAddressSpace(1, mem.NewPhysMem(0))
		if err := as.Map(MmapBase, pages); err != nil {
			b.Fatal(err)
		}
		env := NewEnv(sim.XeonGold6130())
		env.Cache = llc
		return as, env
	}
	bench := func(b *testing.B, r Run) {
		as, env := fixture(b, 16, cache.MustNew(1<<15, 8, 64))
		b.SetBytes(int64(8 * r.Words))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := as.ChargeRun(env, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dense", func(b *testing.B) {
		bench(b, Run{VA: MmapBase, Words: 4096, Write: true})
	})
	b.Run("strided", func(b *testing.B) {
		bench(b, Run{VA: MmapBase, Stride: 64, Words: 512})
	})
	// node is Bisort's child read (heap.Refs): the two reference slots of
	// a 48-byte node — 24-byte header, two refs, one payload word — read
	// as one 2-word ReadRun, node after node in allocation order over
	// 2 MiB, so one read in four straddles a line. The LLC has the
	// machine's geometry (2 MiB, 16-way), which holds the nodes, as it
	// holds most of Bisort's tree.
	b.Run("node", func(b *testing.B) {
		const span, nodeBytes = 2 << 20, 48
		as, env := fixture(b, span/mem.PageSize, cache.MustNew(2<<20, 16, 64))
		var lr [2]uint64
		b.SetBytes(int64(8 * len(lr)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			va := MmapBase + uint64(i%(span/nodeBytes))*nodeBytes + 24
			if err := as.ReadRun(env, va, lr[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
