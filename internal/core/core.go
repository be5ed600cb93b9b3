// Package core implements the paper's primary contribution above the raw
// system call: the MoveObject policy of Algorithm 3 that routes large
// copies through SwapVA and small ones through memmove, the page-alignment
// rule (IfSwapAlign) that makes objects swappable, the applicability
// matrix of Table I, and the break-even threshold calibration behind
// Fig. 10.
package core

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// DefaultThresholdPages is the paper's evaluated swapping threshold: ten
// pages, the break-even point that "makes SwapVA more affordable than
// memmove" on the Gold 6130 testbed (§V).
const DefaultThresholdPages = 10

// MoveMethod reports which mechanism MoveObject used.
type MoveMethod int

const (
	// MovedNothing means source and destination were identical.
	MovedNothing MoveMethod = iota
	// MovedMemmove means the object was copied byte by byte.
	MovedMemmove
	// MovedSwapVA means the object's pages were remapped.
	MovedSwapVA
)

// String implements fmt.Stringer.
func (m MoveMethod) String() string {
	switch m {
	case MovedNothing:
		return "nothing"
	case MovedMemmove:
		return "memmove"
	case MovedSwapVA:
		return "swapva"
	default:
		return fmt.Sprintf("MoveMethod(%d)", int(m))
	}
}

// MovePolicy decides how objects move during compaction/evacuation.
type MovePolicy struct {
	// UseSwapVA gates the whole mechanism; false reproduces the
	// memmove-only baseline.
	UseSwapVA bool
	// ThresholdPages is the minimum whole-page count for SwapVA routing
	// (Threshold_Swapping in Algorithm 3).
	ThresholdPages int
	// HugePages aligns objects of at least 2 MiB to PMD boundaries so
	// the kernel's huge swap (whole PMD entries, 512 pages per exchange)
	// can engage — the natural extension of the paper's technique one
	// page-table level up. Requires Swap.HugeSwap.
	HugePages bool
	// Swap configures the underlying system call.
	Swap kernel.Options
}

// HugeObjectBytes is the size from which HugePages alignment applies.
const HugeObjectBytes = int(mmu.PMDSpan)

// DefaultPolicy returns the SVAGC production policy: SwapVA enabled at the
// paper's ten-page threshold with every syscall optimisation on.
func DefaultPolicy() MovePolicy {
	return MovePolicy{
		UseSwapVA:      true,
		ThresholdPages: DefaultThresholdPages,
		Swap:           kernel.DefaultOptions(),
	}
}

// MemmovePolicy returns the baseline policy that never swaps.
func MemmovePolicy() MovePolicy {
	return MovePolicy{UseSwapVA: false, ThresholdPages: DefaultThresholdPages}
}

// PagesFor returns ceil(length/PageSize), the pages variable of
// Algorithm 3 line 2.
func PagesFor(length int) int {
	return (length + mem.PageSize - 1) >> mem.PageShift
}

// Swappable reports whether an object of the given byte size is routed
// through SwapVA (Algorithm 3 line 3 / line 8).
func (p *MovePolicy) Swappable(length int) bool {
	return p.UseSwapVA && PagesFor(length) >= p.ThresholdPages
}

// IfSwapAlign returns addr aligned up to a page boundary when an object of
// the given size is swappable, and addr unchanged otherwise — Algorithm 3
// lines 7–11. Allocators and the forwarding-address phase both use it so
// swappable objects always start on page boundaries. Under the HugePages
// extension, objects of at least 2 MiB align to PMD boundaries instead.
func (p *MovePolicy) IfSwapAlign(length int, addr uint64) uint64 {
	if p.HugePages && length >= HugeObjectBytes && p.UseSwapVA {
		return (addr + mmu.PMDSpan - 1) &^ (mmu.PMDSpan - 1)
	}
	if p.Swappable(length) {
		return AlignPage(addr)
	}
	return addr
}

// AlignPage rounds addr up to the next page boundary.
func AlignPage(addr uint64) uint64 {
	return (addr + mem.PageMask) &^ uint64(mem.PageMask)
}

// PageAligned reports whether addr sits on a page boundary.
func PageAligned(addr uint64) bool { return addr&mem.PageMask == 0 }

// MoveObject relocates length bytes from source to dest — the primary copy
// operation of GCs (Algorithm 3 lines 1–6). Objects of at least
// ThresholdPages whole pages whose endpoints are page-aligned move by PTE
// swapping; everything else moves by memmove. It returns the method used.
//
// When SwapVA is used, the page span may exceed the object length; the
// trailing bytes of the last page travel with the object. Compacting
// collectors arrange (via IfSwapAlign) that those bytes are dead padding.
func (p *MovePolicy) MoveObject(ctx *machine.Context, k *kernel.Kernel,
	as *mmu.AddressSpace, source, dest uint64, length int) (MoveMethod, error) {

	if length < 0 {
		return MovedNothing, fmt.Errorf("core: MoveObject: negative length %d", length)
	}
	if source == dest || length == 0 {
		return MovedNothing, nil
	}
	if p.Swappable(length) && PageAligned(source) && PageAligned(dest) {
		if err := k.SwapVA(ctx, as, dest, source, PagesFor(length), p.Swap); err != nil {
			return MovedSwapVA, err
		}
		return MovedSwapVA, nil
	}
	if err := k.Memmove(ctx, as, dest, source, length); err != nil {
		return MovedMemmove, err
	}
	return MovedMemmove, nil
}

// swapRetries is how often SwapOrCopy re-issues a transiently failed
// SwapVA: the collectors' default retry budget.
const swapRetries = 3

// SwapOrCopy exchanges pages pages at va1 and va2 by SwapVA, recovering
// from injected faults as the collectors' degradation ladder does, less
// its backoff: a transient failure, which the kernel rolled back, is
// re-issued up to swapRetries times, and a call that exhausts them or
// meets a poisoned frame degrades to a memmove of the span at va2 to va1.
// On a healthy machine it is exactly one SwapVA call.
func SwapOrCopy(ctx *machine.Context, k *kernel.Kernel, as *mmu.AddressSpace,
	va1, va2 uint64, pages int, opts kernel.Options) error {

	err := k.SwapVA(ctx, as, va1, va2, pages, opts)
	for retry := 0; retry < swapRetries && errors.Is(err, kernel.ErrAgain); retry++ {
		ctx.Perf.SwapRetries++
		err = k.SwapVA(ctx, as, va1, va2, pages, opts)
	}
	if !kernel.Degradable(err) {
		return err
	}
	ctx.Perf.SwapFallbacks++
	return k.Memmove(ctx, as, va1, va2, pages<<mem.PageShift)
}
