// QFT maps quantum Fourier transform circuits — the workload family of the
// paper's qe_qft benchmarks — to IBM QX4 and, via the §4.1 subset
// optimization, to the 16-qubit IBM QX5, comparing the restriction
// strategies of §4.2 on cost and runtime.
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
	for _, n := range []int{3, 4, 5} {
		qft := revlib.BuildQFT(n)
		qft.SetName(fmt.Sprintf("qft%d", n))
		fmt.Printf("QFT on %d qubits: %d gates (%d CNOTs)\n",
			n, qft.Len(), qft.Statistics().CNOT)
		for _, m := range []qxmap.Method{
			qxmap.MethodExact, qxmap.MethodDisjoint, qxmap.MethodOdd,
			qxmap.MethodTriangle, qxmap.MethodHeuristic,
		} {
			res, err := mapper.MapWith(context.Background(), qft, qxmap.QX4(), qxmap.Options{
				Method: m, Engine: qxmap.EngineDP, Seed: 1})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-14s F = %3d (%d SWAPs, %d switches)  %8v\n",
				m.String()+":", res.Cost, res.Swaps, res.Switches, res.Runtime)
		}
	}

	// On the 16-qubit QX5, exhaustive permutation enumeration over all
	// physical qubits is infeasible; the subset optimization (§4.1) makes
	// the exact method applicable.
	qft4 := revlib.BuildQFT(4).SetName("qft4")
	res, err := mapper.MapWith(context.Background(), qft4, qxmap.QX5(), qxmap.Options{
		Method: qxmap.MethodExactSubsets, Engine: qxmap.EngineDP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQFT4 on ibmqx5 via connected subsets: F = %d, runtime %v\n",
		res.Cost, res.Runtime)
}
