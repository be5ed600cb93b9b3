// Package kernel is the simulated operating-system layer. It exposes the
// paper's SwapVA system call (Algorithm 1) with its three optimisations —
// request aggregation (Fig. 5), PMD caching (Fig. 7), and overlap-aware
// swapping (Algorithm 2) — together with the memmove baseline it replaces.
// All operations execute against simulated page tables and are charged to
// the calling Context's clock from the machine cost model.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// FlushPolicy selects how SwapVA maintains TLB coherence after updating
// PTEs.
type FlushPolicy int

const (
	// FlushBroadcast shoots down the ASID's TLB entries on every online
	// core after the call — the conservative default a standalone SwapVA
	// needs for correctness on a multi-core machine.
	FlushBroadcast FlushPolicy = iota
	// FlushLocalOnly flushes only the calling core. Safe only when the
	// caller is pinned and all other cores' TLBs were invalidated up
	// front — the optimised compaction mode of Algorithm 4.
	FlushLocalOnly
	// FlushNone performs no flush. It exists so tests can demonstrate the
	// stale-translation hazard the flushes prevent; never use it in a
	// collector.
	FlushNone
)

// String implements fmt.Stringer for diagnostics.
func (p FlushPolicy) String() string {
	switch p {
	case FlushBroadcast:
		return "broadcast"
	case FlushLocalOnly:
		return "local"
	case FlushNone:
		return "none"
	default:
		return fmt.Sprintf("FlushPolicy(%d)", int(p))
	}
}

// Options configures one SwapVA invocation.
type Options struct {
	// PMDCaching reuses the PTE table resolved by the previous page's walk
	// when both pages share a 2 MiB span, skipping three of the four walk
	// levels (the paper's Fig. 7 optimisation).
	PMDCaching bool
	// Flush selects the TLB-coherence policy.
	Flush FlushPolicy
	// Overlap enables Algorithm 2's cycle-chasing swap when the two
	// ranges overlap, reducing O(2n) PTE moves to O(n+δ). When disabled,
	// overlapping ranges fall back to sequential pairwise swapping.
	//
	// For overlapping ranges, both implementations guarantee the same
	// contract: the first range receives the second range's former
	// contents (all that a compacting GC relies on), and the δ displaced
	// pages land in the remainder of the combined region in
	// implementation-defined order. The two orders coincide exactly when
	// δ divides the page count.
	Overlap bool
	// PerPageFlush issues an invlpg-style local flush after every slot
	// update inside the overlap swap, exactly as written in the paper's
	// Algorithm 2 listing. The default (false) defers coherence to the
	// single trailing flush selected by Flush — equivalent, because
	// nothing translates through the updated PTEs mid-call — which is
	// what lets the O(n+δ) PTE-move saving show up as time.
	PerPageFlush bool
	// HugeSwap swaps whole PMD entries (512 pages at a time) wherever
	// both ranges are 2 MiB aligned with at least 2 MiB remaining — an
	// extension beyond the paper that collapses the per-page loop for
	// multi-MiB objects. Falls back to PTE swapping for unaligned
	// prefixes and tails.
	HugeSwap bool
}

// DefaultOptions enables every optimisation with conservative flushing.
func DefaultOptions() Options {
	return Options{PMDCaching: true, Flush: FlushBroadcast, Overlap: true}
}

// Errors returned by the system calls.
var (
	ErrMisaligned = errors.New("kernel: address not page-aligned")
	ErrBadLength  = errors.New("kernel: page count must be positive")
	ErrNotMapped  = errors.New("kernel: page not mapped")
	// ErrAgain is the EAGAIN-style transient failure: the request was
	// rolled back and retrying the identical call may succeed.
	ErrAgain = errors.New("kernel: transient failure, retry (EAGAIN)")
	// ErrPoisoned means a frame in the request is ECC-bad: the kernel
	// refuses to remap it, retrying is futile, and callers must degrade to
	// the byte-copy path.
	ErrPoisoned = errors.New("kernel: frame poisoned (uncorrectable ECC)")
)

// VAError wraps a kernel error with the faulting virtual address, so
// retry policies and tests can extract the address with errors.As while
// errors.Is still matches the underlying sentinel.
type VAError struct {
	VA  uint64
	Err error
}

func (e *VAError) Error() string { return fmt.Sprintf("%v: va %#x", e.Err, e.VA) }

func (e *VAError) Unwrap() error { return e.Err }

// FaultingVA extracts the faulting virtual address from a kernel error
// chain, if any frame of it carries one.
func FaultingVA(err error) (uint64, bool) {
	var ve *VAError
	if errors.As(err, &ve) {
		return ve.VA, true
	}
	return 0, false
}

// Degradable reports whether a swap failure may be resolved by degrading
// to the byte-copy compaction path: exhausted transient retries and
// poisoned frames degrade; structural errors (unmapped pages, misaligned
// arguments) are caller bugs and must propagate.
func Degradable(err error) bool {
	return errors.Is(err, ErrAgain) || errors.Is(err, ErrPoisoned)
}

// Kernel is the OS instance for one machine.
type Kernel struct {
	M *machine.Machine
	// tx is the swap undo log, reused by every call: the machine has one
	// owner, so calls never overlap, and a healthy swap allocates nothing.
	tx txn
}

// New builds a kernel over m.
func New(m *machine.Machine) *Kernel { return &Kernel{M: m} }

// getPTE resolves the PTE table and index covering va, charging the walk
// (or the single remaining level when the PMD cache hits). It mirrors the
// getPTE helper in the paper's Algorithm 1.
func (k *Kernel) getPTE(ctx *machine.Context, as *mmu.AddressSpace, va uint64,
	pc *mmu.PMDCache, pmdCaching bool) (*mmu.PTETable, int, error) {
	if pmdCaching {
		if pt, ok := pc.Lookup(va); ok {
			// Same 2 MiB span: only the PTE itself is touched, and its
			// cache line is hot from the previous iteration.
			ctx.Clock.Advance(ctx.Cost.PTECachedNs)
			ctx.Perf.PTLevelHits += mmu.WalkLevels - 1
			return pt, mmu.PTEIndex(va), nil
		}
	}
	ctx.Clock.Advance(ctx.Cost.WalkNs())
	ctx.Perf.PTWalks++
	pt, idx, err := as.PTETableFor(va)
	if err != nil {
		return nil, 0, err
	}
	if ctx.NUMAView != nil {
		// On a multi-socket machine a full walk whose resolved frame lives
		// on another node pays one interconnect crossing: the walk's last
		// dependent load comes back over the link. PMD-cache hits skip the
		// walk and therefore the surcharge, which is exactly the paper's
		// argument for caching.
		if e := pt.Entry(idx); e.Present {
			ctx.Clock.Advance(ctx.NUMAView.RemoteWalkNs(
				uint64(e.Frame) << mem.PageShift))
		}
	}
	if pmdCaching {
		pc.Store(va, pt)
	}
	return pt, idx, nil
}

func checkArgs(va1, va2 uint64, pages int) error {
	if va1&mem.PageMask != 0 {
		return &VAError{VA: va1, Err: ErrMisaligned}
	}
	if va2&mem.PageMask != 0 {
		return &VAError{VA: va2, Err: ErrMisaligned}
	}
	if pages <= 0 {
		return fmt.Errorf("%w: %d", ErrBadLength, pages)
	}
	return nil
}

// rangesOverlap reports whether [a, a+p) and [b, b+p) intersect, in pages.
func rangesOverlap(a, b uint64, pages int) bool {
	span := uint64(pages) << mem.PageShift
	return a < b+span && b < a+span
}
