package core

import (
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file calibrates the swapping threshold (Fig. 10): it measures, on a
// given machine configuration, the simulated cost of moving an n-page
// object with SwapVA versus memmove and locates the break-even point. CPU
// performance and memory bandwidth both shift the crossover, which is why
// the paper evaluates it on two machines.

// MoveCostPoint is one sample of the threshold sweep.
type MoveCostPoint struct {
	Pages     int
	SwapVANs  sim.Time
	MemmoveNs sim.Time
}

// MeasureMoveCosts measures a single-threaded SwapVA move and memmove of
// the given page count on a fresh machine from newMachine, mirroring the
// paper's single-threaded Fig. 10 microbenchmark. Cold-cache behaviour is
// used for both (large objects do not fit in cache anyway). Under a fault
// plan the swap recovers as SwapOrCopy does.
func MeasureMoveCosts(newMachine func() (*machine.Machine, error), pages int) (MoveCostPoint, error) {
	m, err := newMachine()
	if err != nil {
		return MoveCostPoint{}, err
	}
	k := kernel.New(m)
	as := m.NewAddressSpace()
	src, err := as.MapRegion(pages)
	if err != nil {
		return MoveCostPoint{}, err
	}
	dst, err := as.MapRegion(pages)
	if err != nil {
		return MoveCostPoint{}, err
	}

	swapCtx := m.NewContext(0)
	if err := SwapOrCopy(swapCtx, k, as, dst, src, pages, kernel.DefaultOptions()); err != nil {
		return MoveCostPoint{}, err
	}
	// A degraded swap has already moved the bytes by memmove: start the
	// measured memmove as cold as the first one was.
	m.LLC.InvalidateAll()
	m.Core(0).TLB.FlushAll()
	moveCtx := m.NewContext(0)
	if err := k.Memmove(moveCtx, as, dst, src, pages<<12); err != nil {
		return MoveCostPoint{}, err
	}
	return MoveCostPoint{
		Pages:     pages,
		SwapVANs:  swapCtx.Clock.Now(),
		MemmoveNs: moveCtx.Clock.Now(),
	}, nil
}

// ThresholdSweep samples move costs for 1..maxPages pages, each on its
// own machine from newMachine.
func ThresholdSweep(newMachine func() (*machine.Machine, error), maxPages int) ([]MoveCostPoint, error) {
	points := make([]MoveCostPoint, 0, maxPages)
	for p := 1; p <= maxPages; p++ {
		pt, err := MeasureMoveCosts(newMachine, p)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// BreakEvenPages returns the smallest page count at which SwapVA is no
// more expensive than memmove on machines from newMachine, searching up
// to maxPages. swept holds the points a ThresholdSweep already measured
// for 1..len(swept) pages; they are read, not measured again. It returns
// maxPages+1 if memmove always wins in range.
func BreakEvenPages(newMachine func() (*machine.Machine, error), swept []MoveCostPoint, maxPages int) (int, error) {
	var err error
	for p := 1; p <= maxPages; p++ {
		var pt MoveCostPoint
		if p <= len(swept) {
			pt = swept[p-1]
		} else if pt, err = MeasureMoveCosts(newMachine, p); err != nil {
			return 0, err
		}
		if pt.SwapVANs <= pt.MemmoveNs {
			return p, nil
		}
	}
	return maxPages + 1, nil
}
