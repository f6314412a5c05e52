// Grover maps a complete 2-qubit-database Grover search (3 qubits with an
// ancilla, Toffoli-based oracle and diffusion operator) to IBM QX4,
// demonstrating the reversible-logic substrate (MCT decomposition) feeding
// the exact mapper, and comparing exact against the heuristic baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/revlib"

	qxmap "repro"
)

// buildGrover returns one Grover iteration searching for |11⟩ in a
// 2-qubit database: ancilla preparation, superposition, oracle (Toffoli
// into the ancilla), and the diffusion operator.
func buildGrover() *qxmap.Circuit {
	c := qxmap.NewCircuit(3)
	c.SetName("grover-11")
	// Ancilla |−⟩ on qubit 2.
	c.AddX(2)
	c.AddH(2)
	// Uniform superposition over the database qubits.
	c.AddH(0)
	c.AddH(1)
	// Oracle: flip the ancilla when the database qubits are |11⟩.
	c.AddMCT([]int{0, 1}, 2)
	// Diffusion operator on qubits 0,1.
	c.AddH(0)
	c.AddH(1)
	c.AddX(0)
	c.AddX(1)
	c.AddH(1)
	c.AddCNOT(0, 1)
	c.AddH(1)
	c.AddX(0)
	c.AddX(1)
	c.AddH(0)
	c.AddH(1)
	return c
}

func main() {
	mapper, err := qxmap.NewMapper()
	if err != nil {
		log.Fatal(err)
	}
	defer mapper.Close()
	grover := buildGrover()
	// The Toffoli oracle is not elementary: decompose first.
	elementary, err := revlib.Decompose(grover)
	if err != nil {
		log.Fatal(err)
	}
	st := elementary.Statistics()
	fmt.Printf("Grover iteration: %d gates after decomposition (%d 1q + %d CNOT)\n",
		elementary.Len(), st.SingleQubit, st.CNOT)

	exact, err := mapper.MapWith(context.Background(), elementary, qxmap.QX4(), qxmap.Options{Engine: qxmap.EngineDP})
	if err != nil {
		log.Fatal(err)
	}
	heur, err := mapper.MapWith(context.Background(), elementary, qxmap.QX4(), qxmap.Options{Method: qxmap.MethodHeuristic, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact mapping:     F = %2d (%d SWAPs, %d switches), %d total gates\n",
		exact.Cost, exact.Swaps, exact.Switches, exact.TotalGates())
	fmt.Printf("heuristic mapping: F = %2d (%d SWAPs, %d switches), %d total gates\n",
		heur.Cost, heur.Swaps, heur.Switches, heur.TotalGates())
	switch {
	case exact.Cost == 0 && heur.Cost > 0:
		fmt.Printf("the exact mapper found a free placement; the heuristic wasted %d gates\n", heur.Cost)
	case exact.Cost > 0:
		fmt.Printf("heuristic overhead vs optimum: +%.0f%%\n",
			100*float64(heur.Cost-exact.Cost)/float64(exact.Cost))
	}
}
