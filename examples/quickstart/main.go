// Quickstart: build a small circuit, map it to IBM QX4 with the minimal
// number of SWAP and H operations through the instance-scoped Mapper
// client API, and print the result.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/render"

	qxmap "repro"
)

func main() {
	// A Mapper instance owns its configuration and its portfolio cache;
	// construct one per tenant/configuration.
	m, err := qxmap.NewMapper()
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	// A 4-qubit circuit whose CNOTs form a complete interaction graph: no
	// four physical qubits of QX4 are pairwise coupled, so SWAPs and/or
	// direction switches are unavoidable and the mapper has real work.
	c := qxmap.NewCircuit(4)
	c.AddH(0)
	c.AddCNOT(0, 1)
	c.AddCNOT(2, 3)
	c.AddT(2)
	c.AddCNOT(0, 2)
	c.AddCNOT(1, 3)
	c.AddCNOT(0, 3)
	c.AddCNOT(1, 2)
	c.SetName("quickstart")

	res, err := m.Map(context.Background(), c, qxmap.QX4())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("minimal added cost F = %d (%d SWAPs, %d direction switches)\n",
		res.Cost, res.Swaps, res.Switches)
	fmt.Printf("gates: %d -> %d, layout %s -> %s\n\n",
		c.Len(), res.TotalGates(),
		render.Mapping(res.InitialLayout), render.Mapping(res.FinalLayout))

	fmt.Print(render.Circuit(c))
	fmt.Println()
	fmt.Print(render.Circuit(res.Mapped))

	qasm, err := qxmap.WriteQASM(res.Mapped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmapped QASM:")
	fmt.Print(qasm)
}
