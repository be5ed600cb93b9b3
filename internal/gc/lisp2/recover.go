package lisp2

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The degradation ladder: a swap that fails with the kernel's EAGAIN is
// retried in place with capped exponential backoff (the kernel rolled the
// request back, so a retry is issuing the identical call); after retry
// exhaustion, or immediately on a poisoned frame (retrying ECC damage is
// futile), the single failing move degrades to the byte-copy compaction
// path. Structural errors — unmapped pages, misaligned arguments — are
// collector bugs and propagate. The ladder guarantees a full collection
// always completes: every rung below swap is infallible on a walkable
// heap.

// maxBackoffShift caps the exponential backoff at base << 6 = 64x.
const maxBackoffShift = 6

// swapOrDegrade moves one object by SwapVA, climbing the degradation
// ladder on failure. Used on the non-aggregated compaction path.
func (c *Collector) swapOrDegrade(w *machine.Context, dest, src uint64,
	pages int, opts kernel.Options) error {

	err := c.H.K.SwapVA(w, c.H.AS, dest, src, pages, opts)
	for attempt := 1; err != nil && errors.Is(err, kernel.ErrAgain) &&
		attempt <= c.cfg.maxRetries(); attempt++ {
		if wdErr := c.chargeBackoff(w, attempt, src); wdErr != nil {
			return wdErr
		}
		err = c.H.K.SwapVA(w, c.H.AS, dest, src, pages, opts)
	}
	if err == nil {
		return nil
	}
	if !kernel.Degradable(err) {
		return err
	}
	return c.degradeToCopy(w, dest, src, pages)
}

// chargeBackoff waits out one retry backoff (base << (attempt-1), capped)
// on the worker's clock and records the retry. The retry ladder is the
// collection's only open-ended time sink, so it doubles as the watchdog's
// mid-phase probe: a retry storm that pushes the phase past its deadline
// returns the watchdog abort instead of burning on.
func (c *Collector) chargeBackoff(w *machine.Context, attempt int, va uint64) error {
	shift := attempt - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	back := retryBackoffNs * sim.Time(int64(1)<<uint(shift))
	t0 := w.Clock.Now()
	w.Clock.Advance(back)
	w.Perf.SwapRetries++
	w.Trace.Emit(trace.KindRetry, "swap-retry", t0, back, uint64(attempt), va)
	return c.checkMid(w, attempt, va)
}

// degradeToCopy is the ladder's bottom rung: move the object by memmove.
// The copy covers the full page span, not just the object, so the
// source's trailing filler travels to the destination exactly as the swap
// would have carried it — the compaction walk's filler bookkeeping needs
// no special case for degraded moves.
func (c *Collector) degradeToCopy(w *machine.Context, dest, src uint64, pages int) error {
	w.Perf.SwapFallbacks++
	w.Trace.Emit(trace.KindFallback, "swap-fallback-memmove", w.Clock.Now(), 0,
		uint64(pages), dest)
	// Under memory pressure the copy's bounce frame comes from the GC
	// reservation, so the degrade path cannot fail at the min watermark.
	// Pure accounting — the frame is returned (and the reservation
	// re-credited) immediately, and no simulated time is charged, so runs
	// without a reserve are bit-identical.
	if c.reserveActive > 0 {
		node := 0
		if w.NUMAView != nil {
			node = w.Core.Socket
		}
		if id, err := c.H.AS.Phys.AllocFrameReserved(node); err == nil {
			w.Perf.ReservedAllocs++
			defer c.H.AS.Phys.FreeFrameToReserve(id)
		}
	}
	return c.H.K.Memmove(w, c.H.AS, dest, src, pages<<mem.PageShift)
}

// flushReqs issues a request vector with per-request recovery. The kernel
// applies requests transactionally in order and reports, via the Swapped
// out-fields, exactly which took effect; on failure the unapplied
// remainder is retried from the failing request (with backoff for
// transients), and a request that exhausts its budget — or hits a
// poisoned frame — degrades alone to byte copy before the rest is
// reissued. Degrading only the failing request preserves the aggregation
// win for the healthy remainder.
func (c *Collector) flushReqs(w *machine.Context, reqs []kernel.SwapReq,
	opts kernel.Options) error {

	attempts := 0
	for len(reqs) > 0 {
		_, err := c.H.K.SwapVAVec(w, c.H.AS, reqs, opts)
		if err == nil {
			return nil
		}
		// The failing request is the first one not fully applied
		// (requests are transactional, so Swapped is 0 or Pages).
		i := 0
		for i < len(reqs) && (reqs[i].Swapped == reqs[i].Pages || reqs[i].VA1 == reqs[i].VA2) {
			i++
		}
		if i == len(reqs) {
			return err // unreachable: an error implies an unapplied request
		}
		if i > 0 {
			attempts = 0 // progress: the new head gets a fresh budget
		}
		reqs = reqs[i:]
		switch {
		case errors.Is(err, kernel.ErrAgain) && attempts < c.cfg.maxRetries():
			attempts++
			if wdErr := c.chargeBackoff(w, attempts, reqs[0].VA2); wdErr != nil {
				return wdErr
			}
		case kernel.Degradable(err):
			r := reqs[0]
			if err := c.degradeToCopy(w, r.VA1, r.VA2, r.Pages); err != nil {
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
