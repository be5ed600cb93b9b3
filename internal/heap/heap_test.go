package heap

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newHeap(t *testing.T, size int64, policy core.MovePolicy) (*Heap, *machine.Context) {
	t.Helper()
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	k := kernel.New(m)
	as := m.NewAddressSpace()
	h, err := New(as, k, Config{SizeBytes: size, Policy: policy, ZeroOnAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	return h, m.NewContext(0)
}

func TestAllocSpecTotalBytes(t *testing.T) {
	cases := []struct {
		spec AllocSpec
		want int
	}{
		{AllocSpec{}, HeaderBytes},
		{AllocSpec{NumRefs: 2}, HeaderBytes + 16},
		{AllocSpec{Payload: 1}, HeaderBytes + 8},
		{AllocSpec{Payload: 8}, HeaderBytes + 8},
		{AllocSpec{NumRefs: 1, Payload: 9}, HeaderBytes + 8 + 16},
	}
	for _, c := range cases {
		if got := c.spec.TotalBytes(); got != c.want {
			t.Errorf("TotalBytes(%+v) = %d, want %d", c.spec, got, c.want)
		}
	}
}

func TestAllocSharedSmall(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	o, err := h.AllocShared(ctx, AllocSpec{NumRefs: 2, Payload: 40, Class: 7})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := h.ReadHeader(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if hd.Size != HeaderBytes+16+40 || hd.Marked || hd.Filler {
		t.Errorf("header %+v", hd)
	}
	meta, _ := h.ReadMeta(ctx, o)
	if meta.NumRefs != 2 || meta.Class != 7 || meta.Age != 0 {
		t.Errorf("meta %+v", meta)
	}
	if fwd, _ := h.Forward(ctx, o); fwd != 0 {
		t.Errorf("fresh object has forward %#x", fwd)
	}
	if err := h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestAllocSharedLargeIsAligned(t *testing.T) {
	h, ctx := newHeap(t, 4<<20, core.DefaultPolicy())
	// A small object first so the frontier is unaligned.
	if _, err := h.AllocShared(ctx, AllocSpec{Payload: 24}); err != nil {
		t.Fatal(err)
	}
	big, err := h.AllocShared(ctx, AllocSpec{Payload: 11 * mem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if !core.PageAligned(big.VA()) {
		t.Errorf("large object at %#x not page-aligned", big.VA())
	}
	// The frontier must be re-aligned after the large object (Alg 3 L19).
	if h.Top()&mem.PageMask != 0 {
		t.Errorf("top %#x not aligned after large object", h.Top())
	}
	if err := h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestAllocSharedHeapFull(t *testing.T) {
	h, ctx := newHeap(t, 64<<10, core.DefaultPolicy())
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = h.AllocShared(ctx, AllocSpec{Payload: 1024}); err != nil {
			break
		}
	}
	if err != ErrHeapFull {
		t.Fatalf("err = %v, want ErrHeapFull", err)
	}
	if err := h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestZeroOnAlloc(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	// Dirty the heap directly, then allocate over it.
	dirty := bytes.Repeat([]byte{0xEE}, 4096)
	h.AS.RawWrite(h.Start(), dirty)
	o, err := h.AllocShared(ctx, AllocSpec{NumRefs: 1, Payload: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := h.Ref(ctx, o, 0); r != 0 {
		t.Error("ref slot not zeroed")
	}
	buf := make([]byte, 64)
	h.ReadPayload(ctx, o, 1, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("payload not zeroed")
		}
	}
}

func TestRefsAndPayloadRoundTrip(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	a, _ := h.AllocShared(ctx, AllocSpec{NumRefs: 3, Payload: 128, Class: 1})
	b, _ := h.AllocShared(ctx, AllocSpec{Payload: 16, Class: 2})
	if err := h.SetRef(ctx, a, 1, b); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Ref(ctx, a, 1); got != b {
		t.Errorf("Ref = %#x, want %#x", got, b)
	}
	if got, _ := h.Ref(ctx, a, 0); got != 0 {
		t.Error("untouched ref not null")
	}
	want := []byte("hello simulated heap")
	h.WritePayload(ctx, a, 3, 10, want)
	got := make([]byte, len(want))
	h.ReadPayload(ctx, a, 3, 10, got)
	if !bytes.Equal(got, want) {
		t.Error("payload round trip failed")
	}
	h.WritePayloadWord(ctx, a, 3, 40, 0xfeed)
	if w, _ := h.ReadPayloadWord(ctx, a, 3, 40); w != 0xfeed {
		t.Error("payload word round trip failed")
	}
}

func TestWriteBarrierFires(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	var gotHolder Object
	var gotSlot int
	var gotTarget Object
	h.Barrier = func(_ *machine.Context, holder Object, slot int, target Object) {
		gotHolder, gotSlot, gotTarget = holder, slot, target
	}
	a, _ := h.AllocShared(ctx, AllocSpec{NumRefs: 1})
	b, _ := h.AllocShared(ctx, AllocSpec{Payload: 8})
	h.SetRef(ctx, a, 0, b)
	if gotHolder != a || gotSlot != 0 || gotTarget != b {
		t.Errorf("barrier saw (%#x, %d, %#x)", gotHolder, gotSlot, gotTarget)
	}
}

func TestMarkAndAge(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	o, _ := h.AllocShared(ctx, AllocSpec{Payload: 8})
	if hd, _ := h.ReadHeader(ctx, o); hd.Marked {
		t.Error("fresh object marked")
	}
	h.SetMark(ctx, o, true)
	if hd, _ := h.ReadHeader(ctx, o); !hd.Marked {
		t.Error("mark not set")
	}
	h.SetMark(ctx, o, false)
	if hd, _ := h.ReadHeader(ctx, o); hd.Marked {
		t.Error("mark not cleared")
	}
	h.SetAge(ctx, o, 3)
	if meta, _ := h.ReadMeta(ctx, o); meta.Age != 3 {
		t.Errorf("age = %d", meta.Age)
	}
	// Age must not disturb refs/class.
	h.SetAge(ctx, o, 7)
	if meta, _ := h.ReadMeta(ctx, o); meta.NumRefs != 0 || meta.Class != 0 || meta.Age != 7 {
		t.Errorf("meta corrupted: %+v", meta)
	}
}

func TestForwardRoundTrip(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	o, _ := h.AllocShared(ctx, AllocSpec{Payload: 8})
	h.SetForward(ctx, o, Object(h.Start()))
	if f, _ := h.Forward(ctx, o); f.VA() != h.Start() {
		t.Error("forward round trip failed")
	}
}

func TestTLABSmallAndLargeSeparation(t *testing.T) {
	h, ctx := newHeap(t, 8<<20, core.DefaultPolicy())
	h.tlabBytes = 256 << 10
	var tl TLAB
	if err := h.RefillTLAB(ctx, &tl); err != nil {
		t.Fatal(err)
	}
	small, err := h.Alloc(ctx, &tl, AllocSpec{Payload: 32})
	if err != nil {
		t.Fatal(err)
	}
	large, err := h.Alloc(ctx, &tl, AllocSpec{Payload: 10 * mem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if !core.PageAligned(large.VA()) {
		t.Errorf("TLAB large object at %#x not aligned", large.VA())
	}
	if large.VA() <= small.VA() {
		t.Error("large object not placed from the TLAB end")
	}
	small2, _ := h.Alloc(ctx, &tl, AllocSpec{Payload: 32})
	if small2.VA() != small.VA()+uint64(AllocSpec{Payload: 32}.TotalBytes()) {
		t.Error("small objects not contiguous despite interleaved large allocation")
	}
	if err := tl.Retire(h, ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestTLABRefillOnExhaustion(t *testing.T) {
	h, ctx := newHeap(t, 8<<20, core.DefaultPolicy())
	var tl TLAB
	if err := h.RefillTLAB(ctx, &tl); err != nil {
		t.Fatal(err)
	}
	spec := AllocSpec{Payload: 4000}
	for i := 0; i < 100; i++ { // far more than one TLAB holds
		if _, err := h.Alloc(ctx, &tl, spec); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	tl.Retire(h, ctx)
	if err := h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestTLABDoubleRetireIsNoop(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	var tl TLAB
	h.RefillTLAB(ctx, &tl)
	if err := tl.Retire(h, ctx); err != nil {
		t.Fatal(err)
	}
	if err := tl.Retire(h, ctx); err != nil {
		t.Fatal(err)
	}
	if tl.Valid() {
		t.Error("TLAB valid after retire")
	}
}

func TestRetireAllTLABs(t *testing.T) {
	h, ctx := newHeap(t, 8<<20, core.DefaultPolicy())
	tlabs := make([]*TLAB, 4)
	for i := range tlabs {
		tlabs[i] = &TLAB{}
		if err := h.RefillTLAB(ctx, tlabs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Alloc(ctx, tlabs[i], AllocSpec{Payload: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.RetireAllTLABs(ctx); err != nil {
		t.Fatal(err)
	}
	for i, tl := range tlabs {
		if tl.Valid() {
			t.Errorf("TLAB %d still valid", i)
		}
	}
	if err := h.VerifyWalkable(); err != nil {
		t.Error(err)
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	h, ctx := newHeap(t, 4<<20, core.DefaultPolicy())
	var want []Object
	for i := 0; i < 5; i++ {
		o, err := h.AllocShared(ctx, AllocSpec{Payload: 100 + i*512, Class: uint16(i)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, o)
	}
	big, _ := h.AllocShared(ctx, AllocSpec{Payload: 12 * mem.PageSize})
	want = append(want, big)

	var got []Object
	err := h.Walk(ctx, h.Start(), h.Top(), func(o Object, hd Header) (bool, error) {
		if !hd.Filler {
			got = append(got, o)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walk saw %d objects, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("walk[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	for i := 0; i < 5; i++ {
		h.AllocShared(ctx, AllocSpec{Payload: 64})
	}
	count := 0
	h.Walk(ctx, h.Start(), h.Top(), func(Object, Header) (bool, error) {
		count++
		return count < 2, nil
	})
	if count != 2 {
		t.Errorf("walk visited %d, want 2", count)
	}
}

func TestWriteFillerValidation(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	if err := h.WriteFiller(ctx, h.Start(), 0); err != nil {
		t.Error("zero filler should be a no-op")
	}
	if err := h.WriteFiller(ctx, h.Start(), 4); err == nil {
		t.Error("4-byte filler accepted")
	}
	if err := h.WriteFiller(ctx, h.Start(), 12); err == nil {
		t.Error("non multiple-of-8 filler accepted")
	}
}

func TestSetTopBounds(t *testing.T) {
	h, _ := newHeap(t, 1<<20, core.DefaultPolicy())
	defer func() {
		if recover() == nil {
			t.Fatal("SetTop outside heap did not panic")
		}
	}()
	h.SetTop(h.End() + 1)
}

func TestAllocStats(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	h.AllocShared(ctx, AllocSpec{Payload: 8})
	h.AllocShared(ctx, AllocSpec{Payload: 8})
	n, b := h.AllocStats()
	if n != 2 || b != 2*uint64(AllocSpec{Payload: 8}.TotalBytes()) {
		t.Errorf("stats %d objects %d bytes", n, b)
	}
}

func TestBadSpecRejected(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	if _, err := h.AllocShared(ctx, AllocSpec{NumRefs: -1}); err == nil {
		t.Error("negative refs accepted")
	}
	if _, err := h.Alloc(ctx, nil, AllocSpec{Payload: -5}); err == nil {
		t.Error("negative payload accepted")
	}
}

// Property: any interleaving of small and large allocations (with TLAB
// refills) leaves the heap walkable after retirement, with all swappable
// objects page-aligned.
func TestHeapAlwaysWalkableQuick(t *testing.T) {
	prop := func(sizes []uint16) bool {
		h, ctx := newHeap(t, 16<<20, core.DefaultPolicy())
		var tl TLAB
		if err := h.RefillTLAB(ctx, &tl); err != nil {
			return false
		}
		for _, s := range sizes {
			payload := int(s) % (15 * mem.PageSize)
			if _, err := h.Alloc(ctx, &tl, AllocSpec{Payload: payload}); err != nil {
				if err == ErrHeapFull {
					break
				}
				return false
			}
		}
		if err := tl.Retire(h, ctx); err != nil {
			return false
		}
		return h.VerifyWalkable() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: internal fragmentation from the alignment rule stays bounded —
// the paper claims under ~5% of heap for a 10-page threshold (up to half a
// page wasted per >=10-page object).
func TestFragmentationBounded(t *testing.T) {
	h, ctx := newHeap(t, 32<<20, core.DefaultPolicy())
	live := 0
	for i := 0; ; i++ {
		payload := 10*mem.PageSize + (i%7)*1111
		o, err := h.AllocShared(ctx, AllocSpec{Payload: payload})
		if err != nil {
			break
		}
		_ = o
		live += AllocSpec{Payload: payload}.TotalBytes()
	}
	waste := h.UsedBytes() - live
	frac := float64(waste) / float64(h.Capacity())
	// The paper bounds waste at roughly half a page per >=10-page object
	// ("about less than 5% of heap size"); allow a small margin for the
	// mixed sizes used here.
	if frac > 0.06 {
		t.Errorf("fragmentation %.2f%% exceeds the paper's ~5%% bound", 100*frac)
	}
}

// TestRefsAllocatesNothing: Refs loads the slots straight into dst, with
// no bounce buffer at any slot count.
func TestRefsAllocatesNothing(t *testing.T) {
	h, ctx := newHeap(t, 1<<20, core.DefaultPolicy())
	for _, n := range []int{2, 16} {
		o, err := h.AllocShared(ctx, AllocSpec{NumRefs: n})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SetRef(ctx, o, n-1, o); err != nil {
			t.Fatal(err)
		}
		dst := make([]Object, n)
		allocs := testing.AllocsPerRun(100, func() {
			if err := h.Refs(ctx, o, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Refs of %d slots: %v allocations per call, want 0", n, allocs)
		}
		if dst[n-1] != o || dst[0] != 0 {
			t.Errorf("Refs of %d slots read %#x..%#x, want 0..%#x", n, dst[0], dst[n-1], o)
		}
	}
}
