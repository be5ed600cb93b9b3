package pargc

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/sim"
)

type fixture struct {
	m     *machine.Machine
	h     *heap.Heap
	roots *gc.RootSet
	c     *Collector
	ctx   *machine.Context
}

func newFixture(t *testing.T, heapBytes int64) *fixture {
	t.Helper()
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	k := kernel.New(m)
	as := m.NewAddressSpace()
	h, err := heap.New(as, k, heap.Config{SizeBytes: heapBytes, Policy: core.MemmovePolicy(), ZeroOnAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	roots := &gc.RootSet{}
	return &fixture{m: m, h: h, roots: roots, c: New(h, roots, Config{Workers: 4}), ctx: m.NewContext(0)}
}

// alloc allocates with the JVM-style collect-and-retry loop (the eden
// soft limit makes first-attempt failures routine).
func (f *fixture) alloc(t *testing.T, payload int, class uint16) *gc.Root {
	t.Helper()
	spec := heap.AllocSpec{NumRefs: 2, Payload: payload, Class: class}
	for attempt := 0; attempt < 5; attempt++ {
		o, err := f.h.Alloc(f.ctx, nil, spec)
		if err == nil {
			return f.roots.Add(o)
		}
		if err != heap.ErrHeapFull {
			t.Fatal(err)
		}
		if _, err := f.c.Collect(f.ctx, gc.CauseAllocFailure); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("alloc of %d bytes kept failing", payload)
	return nil
}

func TestMinorPromotesSurvivors(t *testing.T) {
	f := newFixture(t, 16<<20)
	// Mature an object first.
	old := f.alloc(t, 128, 1)
	if _, err := f.c.CollectFull(f.ctx, gc.CauseExplicit); err != nil {
		t.Fatal(err)
	}
	matureTop := f.c.MatureTop()
	if old.Obj.VA() >= matureTop {
		t.Fatal("object not mature after full GC")
	}

	// Young survivors and garbage.
	kept := f.alloc(t, 256, 2)
	dead := f.alloc(t, 256, 3)
	f.roots.Remove(dead) // garbage
	_ = dead

	pause, err := f.c.CollectMinor(f.ctx, gc.CauseAllocFailure)
	if err != nil {
		t.Fatal(err)
	}
	if pause.Kind != gc.KindMinor {
		t.Errorf("kind %q", pause.Kind)
	}
	if pause.LiveObjects != 1 {
		t.Errorf("minor live objects = %d, want 1", pause.LiveObjects)
	}
	// Survivor promoted: below new mature boundary.
	if kept.Obj.VA() >= f.c.MatureTop() {
		t.Error("survivor not promoted")
	}
	// Old object untouched by the minor.
	if old.Obj.VA() >= matureTop {
		t.Error("mature object moved by minor GC")
	}
	if err := f.h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestWriteBarrierMaintainsRemset(t *testing.T) {
	f := newFixture(t, 16<<20)
	old := f.alloc(t, 128, 1)
	f.c.CollectFull(f.ctx, gc.CauseExplicit)

	young := f.alloc(t, 64, 2)
	// Old -> young store must hit the remembered set.
	if err := f.h.SetRef(f.ctx, old.Obj, 0, young.Obj); err != nil {
		t.Fatal(err)
	}
	if f.c.RemsetSize() != 1 {
		t.Fatalf("remset size = %d, want 1", f.c.RemsetSize())
	}
	// Young -> young store must not.
	young2 := f.alloc(t, 64, 3)
	f.h.SetRef(f.ctx, young.Obj, 0, young2.Obj)
	if f.c.RemsetSize() != 1 {
		t.Errorf("young->young store grew remset to %d", f.c.RemsetSize())
	}
	// Null store must not.
	f.h.SetRef(f.ctx, old.Obj, 1, 0)
	if f.c.RemsetSize() != 1 {
		t.Errorf("null store grew remset to %d", f.c.RemsetSize())
	}
}

func TestRemsetKeepsUnrootedYoungAlive(t *testing.T) {
	f := newFixture(t, 16<<20)
	old := f.alloc(t, 128, 1)
	f.c.CollectFull(f.ctx, gc.CauseExplicit)

	young := f.alloc(t, 64, 7)
	f.h.SetRef(f.ctx, old.Obj, 0, young.Obj)
	f.roots.Remove(young) // only the old->young edge keeps it alive

	pause, err := f.c.CollectMinor(f.ctx, gc.CauseAllocFailure)
	if err != nil {
		t.Fatal(err)
	}
	if pause.LiveObjects != 1 {
		t.Fatalf("remset-rooted young object died (live=%d)", pause.LiveObjects)
	}
	// The holder's slot must have been adjusted to the promoted address.
	got, err := f.h.Ref(f.ctx, old.Obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := f.h.ReadMeta(f.ctx, got)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Class != 7 {
		t.Errorf("holder slot points at class %d, want 7", meta.Class)
	}
	if f.c.RemsetSize() != 0 {
		t.Error("remset not cleared after minor GC")
	}
}

func TestCollectEscalatesToFullWhenTight(t *testing.T) {
	f := newFixture(t, 2<<20)
	// Fill almost the whole heap with live data so a minor can't free
	// enough to clear the escalation threshold.
	var roots []*gc.Root
	for i := 0; i < 14; i++ {
		roots = append(roots, f.alloc(t, 128<<10, 1))
	}
	_ = roots
	if _, err := f.c.Collect(f.ctx, gc.CauseAllocFailure); err != nil {
		t.Fatal(err)
	}
	stats := f.c.Stats()
	if stats.Count(gc.KindFull) == 0 {
		t.Error("no full collection despite tight heap")
	}
}

func TestCollectPrefersMinorWhenRoomy(t *testing.T) {
	f := newFixture(t, 32<<20)
	f.c.CollectFull(f.ctx, gc.CauseExplicit) // establish boundary
	fullsBefore := f.c.Stats().Count(gc.KindFull)
	for i := 0; i < 20; i++ {
		r := f.alloc(t, 32<<10, 1)
		f.roots.Remove(r) // young garbage
	}
	if _, err := f.c.Collect(f.ctx, gc.CauseAllocFailure); err != nil {
		t.Fatal(err)
	}
	if got := f.c.Stats().Count(gc.KindMinor); got != 1 {
		t.Errorf("minor count = %d, want 1", got)
	}
	if f.c.Stats().Count(gc.KindFull) != fullsBefore {
		t.Error("unnecessary full collection")
	}
}

func TestExplicitCauseGoesFull(t *testing.T) {
	f := newFixture(t, 16<<20)
	f.alloc(t, 1<<20, 1)
	if _, err := f.c.Collect(f.ctx, gc.CauseExplicit); err != nil {
		t.Fatal(err)
	}
	if f.c.Stats().Count(gc.KindFull) != 1 || f.c.Stats().Count(gc.KindMinor) != 0 {
		t.Error("explicit collection did not go straight to full")
	}
}

func TestNameAndInterfaces(t *testing.T) {
	f := newFixture(t, 1<<20)
	if f.c.Name() != "parallelgc" {
		t.Errorf("name %q", f.c.Name())
	}
}

// TestAdjustManyRefSlots collects a heap of 16-slot objects, once in
// full and once as a minor collection. The slots mix null refs, refs to
// objects that slide, refs to objects that stay put, and (in the minor)
// refs from remembered-set holders into both the mature prefix and the
// young range. Every slot must still reach its target afterwards. The
// pauses' durations and counters are pinned to the values recorded when
// objects with 8 or more slots took a separate planned scan in the
// adjust phase, so they show the one per-slot loop charges the same.
func TestAdjustManyRefSlots(t *testing.T) {
	const slots = 16
	f := newFixture(t, 16<<20)
	rng := rand.New(rand.NewSource(5))
	var class uint16
	classOf := map[*gc.Root]uint16{}
	alloc := func(numRefs, payload int) *gc.Root {
		t.Helper()
		class++
		o, err := f.h.Alloc(f.ctx, nil, heap.AllocSpec{NumRefs: numRefs, Payload: payload, Class: class})
		if err != nil {
			t.Fatal(err)
		}
		r := f.roots.Add(o)
		classOf[r] = class
		return r
	}
	garbage := func() { f.roots.Remove(alloc(2, 96+rng.Intn(4)*32)) }
	// want holds each 16-slot object's expected slot targets by class
	// (0 for null); the targets need not stay rooted.
	want := map[*gc.Root][]uint16{}
	set := func(holder *gc.Root, i int, target *gc.Root) {
		t.Helper()
		var o heap.Object
		if target != nil {
			o = target.Obj
		}
		if err := f.h.SetRef(f.ctx, holder.Obj, i, o); err != nil {
			t.Fatal(err)
		}
		for len(want[holder]) <= i {
			want[holder] = append(want[holder], 0)
		}
		want[holder][i] = classOf[target]
	}
	fill := func(holder *gc.Root, pools ...[]*gc.Root) {
		for i := 0; i < slots; i++ {
			if k := rng.Intn(len(pools) + 1); k < len(pools) {
				set(holder, i, pools[k][rng.Intn(len(pools[k]))])
			} else {
				set(holder, i, nil)
			}
		}
	}
	check := func(phase string) {
		t.Helper()
		var roots []heap.Object
		for _, r := range f.roots.Snapshot() {
			roots = append(roots, r.Obj)
		}
		if err := f.h.VerifyIntegrity(roots); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for holder, classes := range want {
			for i, c := range classes {
				ref, err := f.h.Ref(f.ctx, holder.Obj, i)
				if err != nil {
					t.Fatal(err)
				}
				got := uint16(0)
				if ref != 0 {
					meta, err := f.h.ReadMeta(f.ctx, ref)
					if err != nil {
						t.Fatal(err)
					}
					got = meta.Class
				}
				if got != c {
					t.Fatalf("%s: class %d slot %d reaches class %d, want %d",
						phase, classOf[holder], i, got, c)
				}
			}
		}
	}
	// collect runs one collection on a fresh context synced to the
	// mutator's clock, so the context's counters are the pause's own.
	collect := func(run func(*machine.Context, gc.Cause) (*gc.PauseInfo, error)) (sim.Time, sim.Perf) {
		t.Helper()
		ctx := f.m.NewContext(0)
		ctx.Clock.AdvanceTo(f.ctx.Clock.Now())
		pause, err := run(ctx, gc.CauseExplicit)
		if err != nil {
			t.Fatal(err)
		}
		return pause.Total, *ctx.Perf
	}

	// Full collection. The first objects sit below any garbage, so they
	// stay put; everything after the first garbage slides.
	var stay, move, big []*gc.Root
	for i := 0; i < 3; i++ {
		stay = append(stay, alloc(2, 64))
	}
	big = append(big, alloc(slots, 128))
	for i := 0; i < 4; i++ {
		garbage()
		move = append(move, alloc(2, 64))
		garbage()
		big = append(big, alloc(slots, 128))
	}
	for _, b := range big {
		fill(b, stay, move, big)
	}
	// Two slid targets are reachable only through slots.
	set(big[0], 0, move[1])
	set(big[4], 1, move[3])
	f.roots.Remove(move[1])
	f.roots.Remove(move[3])
	fullTotal, fullPerf := collect(f.c.CollectFull)
	check("full")

	// Minor collection: the 16-slot objects are mature now; young
	// objects slide, and two mature holders point into both generations.
	var young, youngBig []*gc.Root
	for i := 0; i < 4; i++ {
		garbage()
		young = append(young, alloc(2, 64))
		garbage()
		youngBig = append(youngBig, alloc(slots, 128))
	}
	mature := append([]*gc.Root{move[0], move[2]}, stay...)
	for _, b := range youngBig {
		fill(b, mature, big, young, youngBig)
	}
	for _, holder := range big[1:3] {
		fill(holder, mature, big, young, youngBig)
	}
	// Two young targets are reachable only through the holders' slots.
	set(big[1], 0, young[0])
	set(big[2], 1, young[2])
	if f.c.RemsetSize() != 2 {
		t.Fatalf("remset size = %d, want 2", f.c.RemsetSize())
	}
	f.roots.Remove(young[0])
	f.roots.Remove(young[2])
	minorTotal, minorPerf := collect(f.c.CollectMinor)
	check("minor")

	// Every value below equals the planned scan's, except ChargeRuns and
	// RunWords: it declared its out-of-range stretches as runs (29 runs
	// of 116 words in the full pause, 35 of 163 in the minor), which
	// counted them without charging anything differently.
	wantFull := sim.Perf{CacheRefs: 600, BytesRead: 4992, BytesWrite: 2384,
		TLBLookups: 554, TLBMisses: 3, PTWalks: 3, ChargeRuns: 12, RunWords: 94,
		StreamRuns: 16, StreamBytes: 3072, MemmoveCalls: 8, BytesCopied: 1536}
	wantMinor := sim.Perf{CacheRefs: 511, BytesRead: 4560, BytesWrite: 2088,
		TLBLookups: 463, TLBMisses: 3, PTWalks: 3, ChargeRuns: 10, RunWords: 104,
		StreamRuns: 16, StreamBytes: 3072, MemmoveCalls: 8, BytesCopied: 1536}
	if fullTotal != 30355 || fullPerf != wantFull {
		t.Errorf("full pause %v, perf %+v\nwant 30355, perf %+v", float64(fullTotal), fullPerf, wantFull)
	}
	if minorTotal != 29678.5 || minorPerf != wantMinor {
		t.Errorf("minor pause %v, perf %+v\nwant 29678.5, perf %+v", float64(minorTotal), minorPerf, wantMinor)
	}
}
