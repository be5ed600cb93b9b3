package core

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// defaultRetries is the retry budget of a transiently failed swap
	// when Mover.MaxRetries is unset.
	defaultRetries = 3
	// retryBackoffNs is the backoff charged before the first retry of a
	// transiently failed swap; it doubles per attempt, capped at
	// base << maxBackoffShift = 64x.
	retryBackoffNs  = 5 * sim.Microsecond
	maxBackoffShift = 6
)

// Mover is Algorithm 3 over one address space: the rule that picks
// SwapVA or memmove for an object, and the recovery ladder that lets a
// swap always finish. Every SwapVA outside the kernel goes through it —
// the collectors' compaction and the kernel microbenchmarks alike.
//
// The ladder: a swap that fails with the kernel's EAGAIN, which the
// kernel rolled back, is re-issued after a capped exponential backoff;
// after MaxRetries retries, or at once on a poisoned frame (retrying ECC
// damage is futile), the move degrades to a memmove of its page span.
// Structural errors (unmapped pages, misaligned arguments) are caller
// bugs and propagate. On a healthy machine a move is exactly one kernel
// call.
type Mover struct {
	Policy MovePolicy
	K      *kernel.Kernel
	AS     *mmu.AddressSpace
	// MaxRetries bounds the retries of a transiently failed swap before
	// it degrades to memmove (0 = 3).
	MaxRetries int
	// Probe, if set, runs after every backoff on the retrying context
	// with the attempt number and the source address; an error it
	// returns aborts the move. A collector binds its watchdog here, so a
	// retry storm past a phase deadline stops instead of burning on.
	Probe func(w *machine.Context, attempt int, va uint64) error
}

// Swaps reports whether an object of length bytes moving from src to dst
// moves by SwapVA: it is at least the threshold in whole pages and both
// ends are page-aligned (Algorithm 3 line 3). Everything else memmoves.
func (m *Mover) Swaps(length int, src, dst uint64) bool {
	return m.Policy.Swappable(length) && PageAligned(src) && PageAligned(dst)
}

// Swap exchanges pages pages at dst and src by SwapVA, climbing the
// ladder on failure.
func (m *Mover) Swap(w *machine.Context, dst, src uint64, pages int, opts kernel.Options) error {
	err := m.K.SwapVA(w, m.AS, dst, src, pages, opts)
	for attempt := 1; errors.Is(err, kernel.ErrAgain) && attempt <= m.retries(); attempt++ {
		if err := m.backoff(w, attempt, src); err != nil {
			return err
		}
		err = m.K.SwapVA(w, m.AS, dst, src, pages, opts)
	}
	if !kernel.Degradable(err) {
		return err
	}
	return m.degrade(w, dst, src, pages)
}

// SwapVec issues a request vector (Fig. 5(b)'s aggregation) with
// per-request recovery. The kernel applies requests transactionally in
// order and reports in the Swapped out-fields which took effect; on
// failure the unapplied remainder is re-issued from the failing request,
// after a backoff for a transient. A request that exhausts its budget, or
// meets a poisoned frame, degrades alone to memmove before the rest is
// re-issued, so the healthy remainder keeps the aggregation win. The
// budget belongs to the head request: progress past it resets it.
func (m *Mover) SwapVec(w *machine.Context, reqs []kernel.SwapReq, opts kernel.Options) error {
	attempts := 0
	for len(reqs) > 0 {
		_, err := m.K.SwapVAVec(w, m.AS, reqs, opts)
		if err == nil {
			return nil
		}
		// The failing request is the first one not applied (requests
		// are transactional, so Swapped is 0 or Pages).
		i := 0
		for i < len(reqs) && (reqs[i].Swapped == reqs[i].Pages || reqs[i].VA1 == reqs[i].VA2) {
			i++
		}
		if i == len(reqs) {
			return err // unreachable: an error implies an unapplied request
		}
		if i > 0 {
			attempts = 0
		}
		reqs = reqs[i:]
		switch {
		case errors.Is(err, kernel.ErrAgain) && attempts < m.retries():
			attempts++
			if err := m.backoff(w, attempts, reqs[0].VA2); err != nil {
				return err
			}
		case kernel.Degradable(err):
			r := reqs[0]
			if err := m.degrade(w, r.VA1, r.VA2, r.Pages); err != nil {
				return err
			}
			reqs = reqs[1:]
			attempts = 0
		default:
			return err
		}
	}
	return nil
}

func (m *Mover) retries() int {
	if m.MaxRetries <= 0 {
		return defaultRetries
	}
	return m.MaxRetries
}

// backoff waits out one retry backoff (base << (attempt-1), capped) on
// w's clock, records the retry, and runs the probe.
func (m *Mover) backoff(w *machine.Context, attempt int, va uint64) error {
	back := retryBackoffNs * sim.Time(int64(1)<<min(attempt-1, maxBackoffShift))
	t0 := w.Clock.Now()
	w.Clock.Advance(back)
	w.Perf.SwapRetries++
	w.Trace.Emit(trace.KindRetry, "swap-retry", t0, back, uint64(attempt), va)
	if m.Probe == nil {
		return nil
	}
	return m.Probe(w, attempt, va)
}

// degrade is the ladder's bottom rung: move the page span by memmove.
// Copying the whole span, not just the object, carries the source's
// trailing filler along exactly as the swap would have, so a compaction
// walk needs no special case for degraded moves.
func (m *Mover) degrade(w *machine.Context, dst, src uint64, pages int) error {
	w.Perf.SwapFallbacks++
	w.Trace.Emit(trace.KindFallback, "swap-fallback-memmove", w.Clock.Now(), 0,
		uint64(pages), dst)
	// While a collector holds a frame reservation, the copy's bounce
	// frame comes from it, so the degrade cannot fail at the min
	// watermark. Pure accounting: the frame goes straight back and no
	// time is charged.
	if phys := m.AS.Phys; phys.Reserved() > 0 {
		node := 0
		if w.NUMAView != nil {
			node = w.Core.Socket
		}
		if id, err := phys.AllocFrameReserved(node); err == nil {
			w.Perf.ReservedAllocs++
			defer phys.FreeFrameToReserve(id)
		}
	}
	return m.K.Memmove(w, m.AS, dst, src, pages<<mem.PageShift)
}
