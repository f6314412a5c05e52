package qxmap

import (
	"context"
	"testing"

	"repro/internal/revlib"
)

// TestMaterializeEmitsChargedGates: under the paper model a SWAP costs 7
// gates and a direction switch 4 (paper Fig. 3), so on the one-direction
// QX4 and QX5 coupling maps the mapped circuit must carry exactly Cost
// gates more than the input — for exact, heuristic and A* plans on every
// Table-1 row, whichever way round each SWAP was listed.
func TestMaterializeEmitsChargedGates(t *testing.T) {
	m, err := NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, a := range []*Architecture{QX4(), QX5()} {
		exactMethod := MethodExact
		if a.NumQubits() > 5 {
			exactMethod = MethodExactSubsets // the full QX5 space is beyond the DP engine
		}
		for _, method := range []Method{exactMethod, MethodHeuristic, MethodAStar} {
			for _, b := range revlib.Suite() {
				res, err := m.MapWith(context.Background(), b.Circuit, a,
					Options{Method: method, Engine: EngineDP, Seed: 1, Lookahead: 0.5})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", a.Name(), method, b.Name, err)
				}
				if got, want := res.Mapped.Len(), b.Circuit.Len()+res.Cost; got != want {
					t.Errorf("%s/%s/%s: %d gates emitted, want %d (input %d + cost %d)",
						a.Name(), method, b.Name, got, want, b.Circuit.Len(), res.Cost)
				}
			}
		}
	}
}
