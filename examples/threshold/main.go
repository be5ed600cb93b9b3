// Threshold: how an operator calibrates Threshold_Swapping for a machine
// (the paper's Fig. 10). Sweeps the cost of moving an object by SwapVA
// versus memmove across page counts on three machine models — including
// the NVM variant, where the break-even point drops because byte copies
// pay the store penalty and PTE swaps do not.
package main

import (
	"fmt"
	"log"

	svagc "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	models := []*svagc.CostModel{
		svagc.XeonGold6130(),
		svagc.XeonGold6240(),
		sim.XeonGold6130NVM(),
	}
	for _, cm := range models {
		be, err := svagc.BreakEvenPages(cm, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: SwapVA beats memmove from %d pages (%d KiB objects)\n",
			cm.Name, be, be*4)
		newMachine := func() (*svagc.Machine, error) { return svagc.NewMachine(cm), nil }
		points, err := core.ThresholdSweep(newMachine, 14)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s  %-10s  %-10s\n", "pages", "swapva", "memmove")
		for _, p := range points {
			marker := ""
			if p.Pages == be {
				marker = "  <- break-even"
			}
			fmt.Printf("  %-6d  %-10v  %-10v%s\n", p.Pages, p.SwapVANs, p.MemmoveNs, marker)
		}
		fmt.Println()
	}
	fmt.Println("Set the threshold with svagc -threshold N (the paper uses 10).")
}
