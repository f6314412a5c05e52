// Synthesis runs the full reversible-design flow the RevLib benchmarks go
// through: truth table → MMD synthesis → MCT netlist → decomposition to
// the IBM gate set → exact mapping to IBM QX4 — and verifies at each stage
// that the classical function is preserved.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/revlib"

	qxmap "repro"
)

func main() {
	mapper, err := qxmap.NewMapper()
	if err != nil {
		log.Fatal(err)
	}
	defer mapper.Close()
	for _, name := range []string{"3_17", "rd32", "4mod5"} {
		tt := revlib.Tables()[name]
		fmt.Printf("%s: %d-bit reversible function\n", name, tt.N)

		// Stage 1: transformation-based synthesis into MCT gates.
		mct := revlib.Synthesize(tt)
		got, err := revlib.CircuitTable(mct)
		if err != nil {
			log.Fatal(err)
		}
		if !got.Equal(tt) {
			log.Fatalf("%s: synthesis broke the function", name)
		}
		fmt.Printf("  MMD synthesis:  %d MCT gates\n", mct.Len())

		// Stage 2: decomposition into the IBM-native gate set.
		elem, err := revlib.Decompose(mct)
		if err != nil {
			log.Fatal(err)
		}
		st := elem.Statistics()
		fmt.Printf("  decomposition:  %d gates (%d 1q + %d CNOT)\n",
			elem.Len(), st.SingleQubit, st.CNOT)

		// Stage 3: minimal mapping to IBM QX4 (verification of circuit
		// equivalence under the layouts is built into MapWith).
		res, err := mapper.MapWith(context.Background(), elem, qxmap.QX4(), qxmap.Options{Engine: qxmap.EngineDP})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  mapping:        F = %d (%d SWAPs, %d switches), %d total gates, minimal=%v\n\n",
			res.Cost, res.Swaps, res.Switches, res.TotalGates(), res.Minimal)
	}
}
