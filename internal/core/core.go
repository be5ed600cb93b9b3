// Package core implements the paper's primary contribution above the raw
// system call: the Mover of Algorithm 3, which routes large copies
// through SwapVA and small ones through memmove and recovers a faulted
// swap by retry, backoff and memmove; the page-alignment rule
// (IfSwapAlign) that makes objects swappable; the applicability matrix of
// Table I; and the break-even threshold calibration behind Fig. 10.
package core

import (
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// DefaultThresholdPages is the paper's evaluated swapping threshold: ten
// pages, the break-even point that "makes SwapVA more affordable than
// memmove" on the Gold 6130 testbed (§V).
const DefaultThresholdPages = 10

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
