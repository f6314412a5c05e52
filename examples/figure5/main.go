// Figure5 reproduces the paper's running example end to end: the circuit
// of Fig. 1a is mapped to IBM QX4 (Fig. 2) with both exact engines,
// reaching the minimal cost F = 4 of Example 7, and the resulting circuit
// (Fig. 5) is rendered.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/render"

	qxmap "repro"
)

func main() {
	mapper, err := qxmap.NewMapper()
	if err != nil {
		log.Fatal(err)
	}
	defer mapper.Close()
	c := qxmap.Figure1a()
	a := qxmap.QX4()

	fmt.Println("paper Fig. 2 — target architecture:")
	fmt.Print(render.Coupling(a))
	fmt.Println("\npaper Fig. 1a — circuit to be mapped:")
	fmt.Print(render.Circuit(c))

	for _, engine := range []qxmap.Engine{qxmap.EngineSAT, qxmap.EngineDP} {
		res, err := mapper.MapWith(context.Background(), c, a, qxmap.Options{Engine: engine})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nengine %-3s: F = %d (paper Example 7: F = 4), runtime %v\n",
			engine, res.Cost, res.Runtime)
		if engine == qxmap.EngineDP {
			fmt.Println("\npaper Fig. 5 — resulting circuit (minimal SWAP/H cost):")
			fmt.Printf("initial mapping: %s\n", render.Mapping(res.InitialLayout))
			fmt.Print(render.Circuit(res.Mapped))
		}
	}
}
