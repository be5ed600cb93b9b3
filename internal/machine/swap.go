package machine

import (
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/trace"
)

// This file wires the far-memory plane (internal/swaptier) into the
// machine: the demand-fault path that materialises non-resident pages,
// the kswapd-style background reclaimer that keeps the frame pool above
// the high watermark, and the synchronous direct-reclaim fallback for
// faults that arrive with the pool already exhausted.

// reclaimBatch is the slack direct reclaim frees beyond the min
// watermark, so one synchronous activation serves a burst of faults
// instead of every fault paying its own reclaim.
const reclaimBatch = 32

// machineSwapper adapts the machine's tier and reclaimer to the
// mmu.Swapper interface an address space faults through.
type machineSwapper struct {
	m *Machine
}

// PageIn services a demand fault: allocate a frame (reclaiming
// synchronously if the pool is dry), fill it from the tier or with
// zeroes, and install the PTE. Charged to the faulting thread's Env —
// a major fault pays the trap, the tier read (device queueing included)
// and the install; a minor (demand-zero) fault pays the trap and the
// page clear.
func (s *machineSwapper) PageIn(env *mmu.Env, as *mmu.AddressSpace, va uint64) (mem.FrameID, bool, error) {
	m := s.m
	pt, idx, err := as.PTETableFor(va)
	if err != nil {
		return mem.NilFrame, false, nil // nothing mapped here: a real fault
	}
	e := pt.Entry(idx)
	if e.Present {
		return e.Frame, true, nil
	}
	state, slotID := e.State, e.Slot
	if state == mmu.SwapNone {
		return mem.NilFrame, false, nil
	}
	// Reclaim inside faultAllocFrame evicts resident pages only, so this
	// non-resident entry is unchanged when the frame arrives.
	f, err := m.faultAllocFrame(env, as)
	if err != nil {
		return mem.NilFrame, false, err
	}
	t0 := env.Clock.Now()
	env.Clock.Advance(env.Cost.SyscallNs + env.Cost.PTEUpdateNs)
	if state == mmu.SwapSlot {
		m.swap.PageIn(env, slotID, m.Phys.Frame(f)[:])
	} else {
		// Demand-zero minor fault: the kernel clears the page at
		// streaming bandwidth before handing it out.
		env.Clock.Advance(sim.CopyNs(mem.PageSize, env.Cost.StreamBWGBs))
	}
	// Accessed is set on install: the page was just touched, so the
	// reclaimer's clock must give it a full second chance.
	*e = mmu.PTE{Frame: f, Present: true, Accessed: true}
	if state == mmu.SwapSlot {
		// Only now that the install committed is the tier copy dead.
		m.swap.Free(slotID)
		env.Perf.SwapInPages++
		env.Trace.Emit(trace.KindSwapIn, "swap:in", t0, env.Clock.Since(t0), 1, va)
	} else {
		env.Perf.ZeroFillPages++
	}
	return f, true, nil
}

func (s *machineSwapper) FreeSlot(slot uint32) { s.m.swap.Free(slot) }

func (s *machineSwapper) ReadSlot(slot uint32, off int, p []byte) { s.m.swap.Peek(slot, off, p) }

func (s *machineSwapper) WriteSlot(slot uint32, off int, p []byte) { s.m.swap.Poke(slot, off, p) }

func (s *machineSwapper) AdmitPage(p []byte) (uint32, bool) { return s.m.swap.Admit(p) }

// faultAllocFrame allocates the frame backing a demand fault. A dry pool
// triggers synchronous direct reclaim on the faulting thread's own clock
// (the Linux direct-reclaim penalty), then one retry; afterwards, if the
// fault left the pool under pressure, kswapd is woken to restore the
// high watermark in the background. The fresh frame is not yet mapped
// anywhere, so the reclaimer can never pick it.
func (m *Machine) faultAllocFrame(env *mmu.Env, as *mmu.AddressSpace) (mem.FrameID, error) {
	node := as.PlaceNextNode()
	f, err := m.Phys.AllocFrameOn(node)
	if err != nil {
		m.directReclaim(env)
		f, err = m.Phys.AllocFrameOn(node)
		if err != nil {
			return mem.NilFrame, err
		}
	}
	if m.Phys.PressureLevel() != mem.PressureNone {
		m.KickReclaim(env.Clock.Now())
	}
	return f, nil
}

// KickReclaim wakes the background reclaimer at simulated time now: it
// demotes cold pages until the free pool regains the high watermark (or
// the tier fills). Reclaim work is charged to kswapd's own context, not
// the caller — the mutator only ever pays the wake-up check, exactly the
// asynchrony that distinguishes kswapd from direct reclaim. Returns the
// frames freed. No-op without an armed swap tier or with the pool
// already at the high watermark.
func (m *Machine) KickReclaim(now sim.Time) int {
	if m.reclaimer == nil {
		return 0
	}
	target := m.Phys.Watermarks().High - m.Phys.FreeFrames()
	if target <= 0 {
		return 0
	}
	if m.kswapd == nil {
		m.kswapd = m.NewContext(0)
	}
	kc := m.kswapd
	// The daemon wakes no earlier than the kick; if a previous activation
	// ran past this point its clock stays put (it was still busy).
	kc.Clock.AdvanceTo(now)
	t0 := kc.Clock.Now()
	freed := m.runReclaim(&kc.Env, target)
	kc.Perf.ReclaimRuns++
	kc.Trace.Emit(trace.KindReclaim, "reclaim:kswapd", t0, kc.Clock.Since(t0),
		uint64(freed), 0)
	return freed
}

// directReclaim is the synchronous path: the faulting (or allocating)
// thread reclaims on its own clock until the pool clears the min
// watermark with a batch of slack. This is where swap pressure becomes
// mutator latency.
func (m *Machine) directReclaim(env *mmu.Env) int {
	if m.reclaimer == nil {
		return 0
	}
	target := m.Phys.Watermarks().Min + reclaimBatch - m.Phys.FreeFrames()
	if target < reclaimBatch {
		target = reclaimBatch
	}
	t0 := env.Clock.Now()
	freed := m.runReclaim(env, target)
	env.Perf.ReclaimRuns++
	env.Perf.DirectReclaims++
	env.Trace.Emit(trace.KindReclaim, "reclaim:direct", t0, env.Clock.Since(t0),
		uint64(freed), 1)
	return freed
}

// runReclaim drives one reclaimer activation on the given Env.
func (m *Machine) runReclaim(env *mmu.Env, target int) int {
	rc := swaptier.ReclaimContext{
		Env:       env,
		Fault:     m.fault,
		Shootdown: func(asid uint32) { m.reclaimShootdown(env, asid) },
	}
	return m.reclaimer.Reclaim(rc, m.spaces, target)
}

// reclaimShootdown invalidates every core's translations for asid before
// the reclaimer frees the evicted frames — the machine-side analogue of
// Context.ShootdownAll, charged to the reclaiming Env. Reclaim runs
// machine-side rather than on a particular mutator core, so the IPI
// fanout is charged from socket 0; the ack-timeout fault site models the
// syscall-path broadcast only.
func (m *Machine) reclaimShootdown(env *mmu.Env, asid uint32) {
	start := env.Clock.Now()
	for _, c := range m.cores {
		c.TLB.FlushASID(asid)
	}
	m.shootdowns++
	_, inter := m.topo.Fanout(0)
	env.Clock.Advance(env.Cost.TLBFlushLocalNs + m.topo.ShootdownNs(env.Cost, 0))
	env.Perf.TLBFlushLocal++
	env.Perf.Shootdowns++
	env.Perf.IPIsSent += uint64(m.NumCores() - 1)
	env.Perf.IPIsRemote += uint64(inter)
	env.Trace.Emit(trace.KindShootdown, "tlb-shootdown", start,
		env.Clock.Now()-start, uint64(m.NumCores()-1), uint64(inter))
}

// SwapEnabled reports whether the far-memory plane is armed.
func (m *Machine) SwapEnabled() bool { return m.swap != nil }

// SwapTier returns the armed swap tier, or nil.
func (m *Machine) SwapTier() *swaptier.Tier { return m.swap }

// SwappedPages reports the pages currently held by the tier (demand-zero
// pages occupy no slot and are not counted).
func (m *Machine) SwappedPages() int {
	if m.swap == nil {
		return 0
	}
	return m.swap.Slots()
}

// KswapdPerf returns the background reclaimer's counters, or nil if
// kswapd never ran. Its reclaim work (tier writes, shootdowns) is
// charged here, not to any mutator — reports that aggregate mutator
// Perfs must add this one to see total machine work.
func (m *Machine) KswapdPerf() *sim.Perf {
	if m.kswapd == nil {
		return nil
	}
	return m.kswapd.Perf
}

// DirectReclaim runs one synchronous reclaim activation charged to ctx —
// the memory-pressure ladder's step between backpressure and emergency
// GC when the swap plane is armed.
func (ctx *Context) DirectReclaim() int { return ctx.M.directReclaim(&ctx.Env) }

// DiscardPages returns every page of [va, va+pages) to the demand-zero
// state: resident frames are freed (after one shootdown covering them
// all), tier slots are released unread. For the caller the contents are
// dead — the runtime uses this on the heap tail after compaction, the
// MADV_DONTNEED of this machine. Only meaningful on a swapped address
// space; returns the pages that held a frame or slot.
func (ctx *Context) DiscardPages(as *mmu.AddressSpace, va uint64, pages int) int {
	m := ctx.M
	if m.swap == nil || pages <= 0 {
		return 0
	}
	var frames []mem.FrameID
	slots := 0
	for p := 0; p < pages; p++ {
		addr := va + uint64(p)<<mem.PageShift
		pt, idx, err := as.PTETableFor(addr)
		if err != nil {
			continue
		}
		e := pt.Entry(idx)
		switch {
		case e.Present:
			frames = append(frames, e.Frame)
			*e = mmu.PTE{State: mmu.SwapZero}
			ctx.Clock.Advance(ctx.Cost.PTEUpdateNs)
		case e.State == mmu.SwapSlot:
			slot := e.Slot
			*e = mmu.PTE{State: mmu.SwapZero}
			m.swap.Free(slot)
			slots++
			ctx.Clock.Advance(ctx.Cost.PTEUpdateNs)
		}
	}
	if len(frames) > 0 {
		ctx.ShootdownAll(as.ASID)
		for _, f := range frames {
			m.Phys.FreeFrame(f)
		}
	}
	return len(frames) + slots
}

// DrainSwapped faults tier-resident pages of [va, va+pages) back in,
// charged to ctx, stopping once the free pool would sink to keepFree
// frames (<= 0 selects the high watermark, so draining never recreates
// the pressure reclaim just relieved). Demand-zero pages stay lazy.
// Returns the pages drained and whether every tier slot in the range
// was brought home.
func (ctx *Context) DrainSwapped(as *mmu.AddressSpace, va uint64, pages, keepFree int) (int, bool) {
	m := ctx.M
	if m.swap == nil || pages <= 0 {
		return 0, true
	}
	if keepFree <= 0 {
		keepFree = m.Phys.Watermarks().High
	}
	sw := &machineSwapper{m: m}
	drained := 0
	for p := 0; p < pages; p++ {
		addr := va + uint64(p)<<mem.PageShift
		pt, idx, err := as.PTETableFor(addr)
		if err != nil {
			continue
		}
		if pt.Entry(idx).State != mmu.SwapSlot {
			continue
		}
		if m.Phys.FreeFrames() <= keepFree {
			return drained, false
		}
		if _, ok, err := sw.PageIn(&ctx.Env, as, addr); err != nil || !ok {
			return drained, false
		}
		drained++
	}
	return drained, true
}
