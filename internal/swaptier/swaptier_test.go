package swaptier

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
)

func testEnv() *mmu.Env { return mmu.NewEnv(sim.XeonGold6130()) }

// pageWith returns a page whose first nz words are nonzero.
func pageWith(nz int) []byte {
	p := make([]byte, mem.PageSize)
	for i := 0; i < nz; i++ {
		p[i*8] = byte(i%255) + 1
	}
	return p
}

func TestCsizeOf(t *testing.T) {
	if got := csizeOf(pageWith(0)); got != compressedHeaderBytes {
		t.Errorf("all-zero csize = %d, want header %d", got, compressedHeaderBytes)
	}
	if got, want := csizeOf(pageWith(100)), compressedHeaderBytes+100*8; got != want {
		t.Errorf("100-word csize = %d, want %d", got, want)
	}
	full := mem.PageSize / 8
	if got, want := csizeOf(pageWith(full)), compressedHeaderBytes+mem.PageSize; got != want {
		// Incompressible pages cost slightly more than raw, as with LZ4.
		t.Errorf("full csize = %d, want %d", got, want)
	}
}

// csizeOfBytes is the byte-wise reference csizeOf must agree with.
func csizeOfBytes(page []byte) int {
	nz := 0
	for i := 0; i+8 <= len(page); i += 8 {
		for _, b := range page[i : i+8] {
			if b != 0 {
				nz++
				break
			}
		}
	}
	return compressedHeaderBytes + nz*8
}

func TestCsizeOfMatchesByteReference(t *testing.T) {
	var pages [][]byte
	for off := 0; off < 8; off++ {
		p := make([]byte, mem.PageSize)
		p[8*37+off] = 0x80
		pages = append(pages, p)
	}
	full := make([]byte, mem.PageSize)
	for i := range full {
		full[i] = 0xff
	}
	pages = append(pages, make([]byte, mem.PageSize), full)
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 50; n++ {
		p := make([]byte, mem.PageSize)
		for k := rng.Intn(64); k > 0; k-- {
			p[rng.Intn(len(p))] = byte(rng.Intn(255) + 1)
		}
		pages = append(pages, p)
	}
	for i, p := range pages {
		if got, want := csizeOf(p), csizeOfBytes(p); got != want {
			t.Errorf("page %d: csizeOf = %d, byte-wise reference %d", i, got, want)
		}
	}
}

func TestZeroPageDiscard(t *testing.T) {
	tier := New(Config{ZpoolBytes: 1 << 20}, sim.XeonGold6130())
	env := testEnv()
	before := env.Clock.Now()
	id, zero, err := tier.PageOut(env, pageWith(0))
	if err != nil || !zero || id != 0 {
		t.Fatalf("PageOut(zero page) = (%d, %v, %v), want (0, true, nil)", id, zero, err)
	}
	if env.Clock.Now() == before {
		t.Error("zero discard charged nothing: the compressor still runs")
	}
	st := tier.Stats()
	if st.Slots != 0 || st.ZeroPages != 1 || st.ZpoolUsed != 0 {
		t.Errorf("after zero discard: %+v", st)
	}
}

func TestZpoolSpillsToFar(t *testing.T) {
	// Budget fits exactly two compressed pages; the third must go far.
	cs := int64(csizeOf(pageWith(64)))
	tier := New(Config{ZpoolBytes: 2 * cs, FarBytes: 1 << 20}, sim.XeonGold6130())
	env := testEnv()
	var ids []uint32
	for i := 0; i < 3; i++ {
		id, zero, err := tier.PageOut(env, pageWith(64))
		if err != nil || zero {
			t.Fatalf("PageOut %d: (%v, %v)", i, zero, err)
		}
		ids = append(ids, id)
	}
	st := tier.Stats()
	if st.ZpoolSlots != 2 || st.FarSlots != 1 {
		t.Errorf("placement: %d zpool / %d far, want 2 / 1", st.ZpoolSlots, st.FarSlots)
	}
	if st.ZpoolUsed != 2*cs || st.FarUsed != mem.PageSize {
		t.Errorf("occupancy: zpool %d far %d, want %d / %d", st.ZpoolUsed, st.FarUsed, 2*cs, mem.PageSize)
	}
	// Freeing a zpool slot makes room near again.
	tier.Free(ids[0])
	id, _, err := tier.PageOut(env, pageWith(64))
	if err != nil {
		t.Fatal(err)
	}
	if tier.Stats().FarSlots != 1 {
		t.Error("freed zpool budget not reused")
	}
	_ = id
}

func TestTierFull(t *testing.T) {
	tier := New(Config{FarBytes: mem.PageSize}, sim.XeonGold6130())
	env := testEnv()
	if _, _, err := tier.PageOut(env, pageWith(8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tier.PageOut(env, pageWith(8)); err != ErrTierFull {
		t.Fatalf("second PageOut err = %v, want ErrTierFull", err)
	}
}

// TestFarQueueSerialises pins the busy-until device model: back-to-back
// far transfers each wait for the previous one, so the second caller's
// charge includes the first transfer's residual service time.
func TestFarQueueSerialises(t *testing.T) {
	cost := sim.XeonGold6130()
	tier := New(Config{FarBytes: 1 << 20, FarLatNs: 10_000}, cost)
	per := sim.Time(10_000) + sim.CopyNs(mem.PageSize, 2)
	env := testEnv()
	t0 := env.Clock.Now()
	if _, _, err := tier.PageOut(env, pageWith(8)); err != nil {
		t.Fatal(err)
	}
	if got := env.Clock.Since(t0); got != per {
		t.Errorf("first transfer charged %v, want %v", got, per)
	}
	// A second caller issuing at time ~per/2 must wait out the remainder
	// of the first transfer plus its own service time.
	env2 := testEnv()
	env2.Clock.Advance(per / 2)
	t1 := env2.Clock.Now()
	if _, _, err := tier.PageOut(env2, pageWith(8)); err != nil {
		t.Fatal(err)
	}
	want := (per - per/2) + per
	if got := env2.Clock.Since(t1); got != want {
		t.Errorf("queued transfer charged %v, want %v (residual + service)", got, want)
	}
}

// TestPageInKeepsSlot pins the crash-consistency contract: PageIn copies
// but does not release, so the caller can retry an interrupted install;
// Free is a separate, explicit step.
func TestPageInKeepsSlot(t *testing.T) {
	tier := New(Config{ZpoolBytes: 1 << 20}, sim.XeonGold6130())
	env := testEnv()
	page := pageWith(32)
	id, _, err := tier.PageOut(env, page)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, mem.PageSize)
	tier.PageIn(env, id, dst)
	if string(dst) != string(page) {
		t.Fatal("PageIn returned different contents")
	}
	if tier.Slots() != 1 {
		t.Fatal("PageIn released the slot; only Free may")
	}
	// Re-read works (retry path), then Free empties the tier.
	tier.PageIn(env, id, dst)
	tier.Free(id)
	if st := tier.Stats(); st.Slots != 0 || st.ZpoolUsed != 0 {
		t.Errorf("after Free: %+v", st)
	}
}

// TestSlotReuseLIFO pins deterministic slot handout: freed IDs are
// reused youngest-first before the slot array grows.
func TestSlotReuseLIFO(t *testing.T) {
	tier := New(Config{ZpoolBytes: 1 << 20}, sim.XeonGold6130())
	env := testEnv()
	var ids []uint32
	for i := 0; i < 3; i++ {
		id, _, _ := tier.PageOut(env, pageWith(8))
		ids = append(ids, id)
	}
	tier.Free(ids[0])
	tier.Free(ids[2])
	id, _, _ := tier.PageOut(env, pageWith(8))
	if id != ids[2] {
		t.Errorf("reused slot %d, want most-recently-freed %d", id, ids[2])
	}
	id, _, _ = tier.PageOut(env, pageWith(8))
	if id != ids[0] {
		t.Errorf("reused slot %d, want %d", id, ids[0])
	}
}

// TestPokeRetracksZpoolBudget: raw writes into a swapped page re-derive
// its compressed size against the pool budget.
func TestPokeRetracksZpoolBudget(t *testing.T) {
	tier := New(Config{ZpoolBytes: 1 << 20}, sim.XeonGold6130())
	env := testEnv()
	id, _, err := tier.PageOut(env, pageWith(8))
	if err != nil {
		t.Fatal(err)
	}
	used := tier.Stats().ZpoolUsed
	grow := make([]byte, 256)
	for i := range grow {
		grow[i] = 0xAB
	}
	tier.Poke(id, 1024, grow)
	want := used + 256
	if got := tier.Stats().ZpoolUsed; got != want {
		t.Errorf("zpool after Poke = %d, want %d", got, want)
	}
	back := make([]byte, 256)
	tier.Peek(id, 1024, back)
	if string(back) != string(grow) {
		t.Error("Peek did not read back Poke's bytes")
	}
}

func TestDisabledConfig(t *testing.T) {
	if New(Config{}, sim.XeonGold6130()) != nil {
		t.Error("zero config must build no tier")
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if err := (Config{FarBytes: -1}).Validate(); err == nil {
		t.Error("negative size validated")
	}
}

// TestReclaimAllocatesNothing: once one activation has grown the
// reclaimer's scratch slices and the tier's slots, a reclaim that evicts
// pages across several PTE tables allocates nothing. Each cycle pages the
// victims back in so that the next activation has work to do.
func TestReclaimAllocatesNothing(t *testing.T) {
	const pages = 2*512 + 40 // three PTE tables
	phys := mem.NewPhysMem(0)
	as := mmu.NewAddressSpace(1, phys)
	if err := as.Map(mmu.MmapBase, pages); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		f, _ := as.Lookup(mmu.MmapBase + uint64(i)<<mem.PageShift)
		copy(phys.Frame(f)[:], pageWith(1+i%64))
	}
	tier := New(Config{ZpoolBytes: 64 << 20}, sim.XeonGold6130())
	r := NewReclaimer(tier, phys)
	rc := ReclaimContext{Env: testEnv(), Shootdown: func(uint32) {}}
	spaces := []*mmu.AddressSpace{as}
	cycle := func() {
		if freed := r.Reclaim(rc, spaces, 700); freed != 700 {
			t.Fatalf("Reclaim freed %d frames, want 700", freed)
		}
		for i := 0; i < pages; i++ {
			pt, idx, _ := as.PTETableFor(mmu.MmapBase + uint64(i)<<mem.PageShift)
			e := pt.Entry(idx)
			if e.State != mmu.SwapSlot {
				continue
			}
			f, err := phys.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			tier.PageIn(rc.Env, e.Slot, phys.Frame(f)[:])
			tier.Free(e.Slot)
			*e = mmu.PTE{Frame: f, Present: true}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("reclaim cycle allocates %v times, want 0", allocs)
	}
}
