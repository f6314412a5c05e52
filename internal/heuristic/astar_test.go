package heuristic

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
)

func TestAStarFigure1(t *testing.T) {
	sk := circuit.Figure1b()
	r, err := MapAStar(context.Background(), sk, arch.QX4(), AStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, sk, arch.QX4(), r)
}

func TestAStarDeterministic(t *testing.T) {
	sk := randomSkeleton(3, 5, 25)
	a := arch.QX4()
	r1, err := MapAStar(context.Background(), sk, a, AStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MapAStar(context.Background(), sk, a, AStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost || len(r1.Ops) != len(r2.Ops) {
		t.Fatal("A* should be deterministic")
	}
}

func TestAStarValidity(t *testing.T) {
	archs := []*arch.Arch{arch.QX4(), arch.QX2(), arch.Linear(5), arch.QX5()}
	for _, a := range archs {
		for seed := int64(0); seed < 8; seed++ {
			n := 4
			if a.NumQubits() < 4 {
				n = a.NumQubits()
			}
			sk := randomSkeleton(seed, n, 12)
			for _, la := range []float64{0, 0.5} {
				r, err := MapAStar(context.Background(), sk, a, AStarOptions{Lookahead: la})
				if err != nil {
					t.Fatalf("%s seed %d lookahead %v: %v", a.Name(), seed, la, err)
				}
				verify(t, sk, a, r)
			}
		}
	}
}

// TestAStarNeverBelowExact: no heuristic may beat the proven minimum.
func TestAStarNeverBelowExact(t *testing.T) {
	a := arch.QX4()
	f := func(seed int64, nRaw, gRaw uint) bool {
		n := 2 + int(nRaw%4)
		gates := 2 + int(gRaw%8)
		sk := randomSkeleton(seed, n, gates)
		r, err := MapAStar(context.Background(), sk, a, AStarOptions{Lookahead: 0.5})
		if err != nil {
			return false
		}
		ex, err := exact.Solve(context.Background(), sk, a, exact.Options{Engine: exact.EngineDP})
		if err != nil {
			return false
		}
		return r.Cost >= ex.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestAStarCompetitiveWithStochastic: across a batch of random circuits
// the A* baseline should on aggregate be at least as good as a single
// stochastic run — it searches each layer optimally.
func TestAStarCompetitiveWithStochastic(t *testing.T) {
	a := arch.QX4()
	totalAStar, totalStoch := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		sk := randomSkeleton(seed, 5, 20)
		ar, err := MapAStar(context.Background(), sk, a, AStarOptions{Lookahead: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Map(context.Background(), sk, a, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		totalAStar += ar.Cost
		totalStoch += sr.Cost
	}
	if totalAStar > totalStoch {
		t.Errorf("A* total %d worse than stochastic total %d", totalAStar, totalStoch)
	}
	t.Logf("aggregate cost: A* %d vs stochastic %d", totalAStar, totalStoch)
}

func TestAStarErrors(t *testing.T) {
	if _, err := MapAStar(context.Background(), randomSkeleton(0, 6, 3), arch.QX4(), AStarOptions{}); err == nil {
		t.Error("n > m should fail")
	}
	disc := arch.MustNew("disc", 4, []arch.Pair{{Control: 0, Target: 1}, {Control: 2, Target: 3}})
	if _, err := MapAStar(context.Background(), randomSkeleton(0, 4, 3), disc, AStarOptions{}); err == nil {
		t.Error("disconnected arch should fail")
	}
}

// TestAStarLayerOptimality: on single-layer instances (one CNOT), the A*
// cost must equal the exact minimum restricted to the trivial initial
// layout; since a single CNOT admits cost-0..cheap mappings, check the
// weaker exact bound plus the structural property that the first layer's
// repair is SWAP-minimal for the trivial layout.
func TestAStarLayerOptimality(t *testing.T) {
	a := arch.QX4()
	// One CNOT between the two most distant qubits under trivial layout.
	sk := &circuit.Skeleton{NumQubits: 5, Gates: []circuit.CNOTGate{{Control: 0, Target: 4}}}
	r, err := MapAStar(context.Background(), sk, a, AStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Distance(p0,p4) = 2 → one SWAP brings them adjacent; plus possibly
	// a 4-H switch. A* must not use more than one SWAP.
	if r.Swaps > 1 {
		t.Errorf("A* used %d SWAPs for a distance-2 pair", r.Swaps)
	}
	verify(t, sk, a, r)
}

// TestAStarWideLayout maps 8 qubits on a 300-qubit line: its layouts do
// not fit a 64-bit key packed with 9 bits per index, so the closed set
// needs a key that stays collision-free at any size.
func TestAStarWideLayout(t *testing.T) {
	a := arch.Linear(300)
	sk := randomSkeleton(4, 8, 16)
	r, err := MapAStar(context.Background(), sk, a, AStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, sk, a, r)
}
