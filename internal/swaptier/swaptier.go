// Package swaptier is the far-memory plane of the simulated machine: a
// second memory tier behind the physical frame pool, plus the
// kswapd-style background reclaimer (reclaim.go) that demotes cold
// pages into it when the allocator sinks below the low watermark.
//
// Two backing stores share one slot namespace:
//
//   - A compressed-RAM zpool (zswap/zram analogue). Each stored page
//     pays a CPU compression cost and occupies its *compressed* size
//     against the pool budget; the compression ratio is derived
//     deterministically from the page's contents (zero words compress
//     away), so the same workload always produces the same pool
//     occupancy. All-zero pages are not stored at all — the caller
//     flips the PTE to demand-zero instead — reproducing zswap's
//     same-filled-page optimisation.
//   - A simulated NVMe far tier with a per-operation device latency, a
//     streaming bandwidth, and a single-queue busy-until model on the
//     cost clock: back-to-back transfers serialise behind the device,
//     so burst write-back is charged queueing delay, not just transfer
//     time.
//
// Pages go to the zpool while its budget lasts, then spill to the far
// device — the zswap writeback ordering. Every operation is charged to
// the caller's Env (the reclaimer's own clock for background
// write-back, the faulting thread's clock for demand fault-ins).
//
// The zero Config disables the plane entirely: no tier, no reclaimer,
// no PTE ever leaves the resident/unmapped states, and the simulator is
// bit-for-bit identical to a build without this package.
package swaptier

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// Config sizes the swap tier. The zero value disables it.
type Config struct {
	// FarBytes is the simulated NVMe far-tier capacity. 0 disables the
	// far device (the zpool, if any, is then the only backing store).
	FarBytes int64
	// ZpoolBytes is the compressed-RAM pool budget, counted in
	// *compressed* bytes. 0 disables the zpool.
	ZpoolBytes int64
	// FarLatNs is the far device's per-operation access latency.
	// 0 selects DefaultFarLatNs. The device streams at DefaultFarBWGBs.
	FarLatNs sim.Time
}

// Default far-device shape: a datacenter NVMe SSD — ~10 µs access
// latency, ~2 GB/s sustained sequential bandwidth.
const (
	DefaultFarLatNs sim.Time = 10_000
	DefaultFarBWGBs          = 2.0
)

// Compression model: LZ4-class cycles per byte (compress ≈ 3, decompress
// ≈ 1), and a compressed page costs a fixed header plus 8 bytes per
// nonzero word.
const (
	compressCyclesPerByte   = 3.0
	decompressCyclesPerByte = 1.0
	compressedHeaderBytes   = 64
)

// Enabled reports whether any backing store is configured.
func (c Config) Enabled() bool { return c.FarBytes > 0 || c.ZpoolBytes > 0 }

// WithDefaults fills the latency knob left zero.
func (c Config) WithDefaults() Config {
	if c.FarLatNs <= 0 {
		c.FarLatNs = DefaultFarLatNs
	}
	return c
}

// Validate rejects nonsensical shapes.
func (c Config) Validate() error {
	if c.FarBytes < 0 || c.ZpoolBytes < 0 {
		return fmt.Errorf("swaptier: negative tier size (%+v)", c)
	}
	if c.FarLatNs < 0 {
		return fmt.Errorf("swaptier: negative far latency %v", c.FarLatNs)
	}
	return nil
}

// ErrTierFull means neither backing store can take another page: the
// reclaimer stops demoting and the allocator's pressure ladder takes
// over (emergency GC, then fail-fast).
var ErrTierFull = errors.New("swaptier: tier full")

// slot is one swapped-out page. The full page bytes are kept host-side
// (the simulated "device contents"), so fault-ins and raw verification
// read back exactly what was written; csize is what the page counts
// against the zpool budget.
type slot struct {
	data  []byte
	far   bool
	csize int
	used  bool
}

// Stats is a point-in-time snapshot of tier occupancy and traffic.
type Stats struct {
	Slots      int   // live slots (swapped pages, all stores)
	FarSlots   int   // of those, on the far device
	ZpoolSlots int   // of those, in the compressed pool
	ZpoolUsed  int64 // compressed bytes occupying the zpool budget
	FarUsed    int64 // bytes on the far device
	OutPages   uint64
	InPages    uint64
	ZeroPages  uint64 // write-backs discarded as all-zero
}

// Tier is one machine's swap backing store, driven by the machine's one
// host goroutine like every other part of the machine.
type Tier struct {
	cfg  Config
	cost *sim.CostModel

	slots   []slot // index 0 unused: slot IDs are 1-based
	freeIDs []uint32
	zpUsed  int64
	farUsed int64
	// farBusy is the device queue: the simulated time until which the
	// far device is occupied by previously issued transfers.
	farBusy sim.Time

	outPages, inPages, zeroPages uint64
}

// New builds a tier for the given config and cost model. Returns nil
// for a disabled config, so callers can thread the result around
// unconditionally (methods are not nil-safe; gate on Enabled).
func New(cfg Config, cost *sim.CostModel) *Tier {
	if !cfg.Enabled() {
		return nil
	}
	return &Tier{cfg: cfg.WithDefaults(), cost: cost, slots: make([]slot, 1)}
}

// Config returns the (default-filled) configuration.
func (t *Tier) Config() Config { return t.cfg }

// csizeOf is the deterministic content-based compressed size: a fixed
// header plus one word per nonzero 8-byte word. A page of pointers and
// sparse data compresses well; incompressible data costs slightly more
// than a raw page, as with real LZ4.
func csizeOf(page []byte) int {
	nz := 0
	for i := 0; i+8 <= len(page); i += 8 {
		if binary.LittleEndian.Uint64(page[i:]) != 0 {
			nz++
		}
	}
	return compressedHeaderBytes + nz*8
}

// PageOut stores one page into the tier, charging env's clock for the
// compression or device write. Returns zero=true (and no slot) for an
// all-zero page — the caller marks the PTE demand-zero and no slot is
// consumed. Placement prefers the zpool while its budget lasts, then
// the far device; ErrTierFull when neither fits.
func (t *Tier) PageOut(env *mmu.Env, page []byte) (id uint32, zero bool, err error) {
	if len(page) != mem.PageSize {
		return 0, false, fmt.Errorf("swaptier: PageOut of %d bytes", len(page))
	}
	cs := csizeOf(page)
	if cs == compressedHeaderBytes {
		// Same-filled page: discard, don't store. The compressor still ran.
		env.Clock.Advance(t.cost.CyclesNs(compressCyclesPerByte * mem.PageSize))
		t.zeroPages++
		return 0, true, nil
	}
	far := false
	switch {
	case t.cfg.ZpoolBytes > 0 && t.zpUsed+int64(cs) <= t.cfg.ZpoolBytes:
		t.zpUsed += int64(cs)
	case t.cfg.FarBytes > 0 && t.farUsed+mem.PageSize <= t.cfg.FarBytes:
		far = true
		t.farUsed += mem.PageSize
	default:
		return 0, false, ErrTierFull
	}
	id = t.takeSlot()
	s := &t.slots[id]
	s.data = append(s.data[:0], page...)
	s.far = far
	s.csize = cs
	s.used = true
	t.outPages++
	if far {
		env.Clock.Advance(t.chargeFar(env.Clock.Now()))
	} else {
		env.Clock.Advance(t.cost.CyclesNs(compressCyclesPerByte * mem.PageSize))
	}
	return id, false, nil
}

// PageIn copies a slot's page into dst, charging env for the decompress
// or device read. The slot stays live: the caller releases it with Free
// once the page is re-installed, so a failed install never loses the
// only copy of the data.
func (t *Tier) PageIn(env *mmu.Env, id uint32, dst []byte) {
	s := t.slot(id)
	copy(dst, s.data)
	t.inPages++
	if s.far {
		env.Clock.Advance(t.chargeFar(env.Clock.Now()))
	} else {
		env.Clock.Advance(t.cost.CyclesNs(decompressCyclesPerByte * mem.PageSize))
	}
}

// chargeFar models the single-queue far device: the transfer starts
// when the device is free, runs for latency + PageSize at the device
// bandwidth, and the caller waits until it completes. Returns the wait
// to charge.
func (t *Tier) chargeFar(now sim.Time) sim.Time {
	start := t.farBusy
	if now > start {
		start = now
	}
	done := start + t.cfg.FarLatNs + sim.CopyNs(mem.PageSize, DefaultFarBWGBs)
	t.farBusy = done
	return done - now
}

// Free releases a slot without reading it (unmap, post-GC discard).
func (t *Tier) Free(id uint32) {
	t.release(id)
}

// Peek copies len(p) bytes at off within the slot's page, uncharged.
func (t *Tier) Peek(id uint32, off int, p []byte) {
	copy(p, t.slot(id).data[off:])
}

// Poke overwrites the slot's page at off, uncharged, re-deriving the
// compressed size (the zpool budget tracks contents).
func (t *Tier) Poke(id uint32, off int, p []byte) {
	s := t.slot(id)
	copy(s.data[off:], p)
	if !s.far {
		cs := csizeOf(s.data)
		t.zpUsed += int64(cs - s.csize)
		s.csize = cs
	}
}

// Admit stores a full page uncharged (raw host-side plumbing: a
// RawWrite landing on a demand-zero page). ok=false when full.
func (t *Tier) Admit(page []byte) (uint32, bool) {
	cs := csizeOf(page)
	far := false
	switch {
	case t.cfg.ZpoolBytes > 0 && t.zpUsed+int64(cs) <= t.cfg.ZpoolBytes:
		t.zpUsed += int64(cs)
	case t.cfg.FarBytes > 0 && t.farUsed+mem.PageSize <= t.cfg.FarBytes:
		far = true
		t.farUsed += mem.PageSize
	default:
		return 0, false
	}
	id := t.takeSlot()
	s := &t.slots[id]
	s.data = append(s.data[:0], page...)
	s.far = far
	s.csize = cs
	s.used = true
	return id, true
}

// Slots reports the live slot count — the machine's swapped-page count.
func (t *Tier) Slots() int {
	n := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].used {
			n++
		}
	}
	return n
}

// Stats snapshots occupancy and traffic counters.
func (t *Tier) Stats() Stats {
	st := Stats{
		ZpoolUsed: t.zpUsed, FarUsed: t.farUsed,
		OutPages: t.outPages, InPages: t.inPages, ZeroPages: t.zeroPages,
	}
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].used {
			st.Slots++
			if t.slots[i].far {
				st.FarSlots++
			} else {
				st.ZpoolSlots++
			}
		}
	}
	return st
}

// takeSlot hands out a slot ID, reusing freed ones youngest-first
// (deterministic: the free list is a LIFO fed by deterministic frees).
func (t *Tier) takeSlot() uint32 {
	if n := len(t.freeIDs); n > 0 {
		id := t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
		return id
	}
	t.slots = append(t.slots, slot{})
	return uint32(len(t.slots) - 1)
}

func (t *Tier) release(id uint32) {
	s := t.slot(id)
	if s.far {
		t.farUsed -= mem.PageSize
	} else {
		t.zpUsed -= int64(s.csize)
	}
	s.used = false
	s.far = false
	s.csize = 0
	t.freeIDs = append(t.freeIDs, id)
}

func (t *Tier) slot(id uint32) *slot {
	if id == 0 || int(id) >= len(t.slots) || !t.slots[id].used {
		panic(fmt.Sprintf("swaptier: invalid slot %d", id))
	}
	return &t.slots[id]
}
