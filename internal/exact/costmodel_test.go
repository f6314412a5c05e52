package exact

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/encoder"
	"repro/internal/perm"
	"repro/internal/revlib"
)

// applyOpsWeighted is applyOps generalized to an arbitrary cost model: it
// replays the op stream, checks every SWAP and CNOT against the coupling
// map and the evolving mapping, and returns the stream's weighted cost.
func applyOpsWeighted(t *testing.T, sk *circuit.Skeleton, a *arch.Arch, r *Result) int {
	t.Helper()
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	cm := a.Cost()
	mp := r.InitialMapping()
	cost := 0
	next := 0
	for _, op := range ops {
		if op.Swap {
			if !a.AllowsEitherDirection(op.A, op.B) {
				t.Fatalf("SWAP on uncoupled pair (%d,%d)", op.A, op.B)
			}
			mp = mp.ApplySwap(op.A, op.B)
			cost += cm.SwapWeight(op.A, op.B)
			continue
		}
		g := sk.Gates[next]
		if op.GateIndex != next {
			t.Fatalf("gate order: got %d, want %d", op.GateIndex, next)
		}
		next++
		if !a.Allows(op.Control, op.Target) {
			t.Fatalf("gate %d: CNOT(%d→%d) not in coupling map", op.GateIndex, op.Control, op.Target)
		}
		pc, pt := mp[g.Control], mp[g.Target]
		if op.Switched {
			if op.Control != pt || op.Target != pc {
				t.Fatalf("gate %d: switched op (%d,%d) does not match mapping (%d,%d)",
					op.GateIndex, op.Control, op.Target, pc, pt)
			}
			cost += cm.HWeight(op.Control, op.Target)
		} else if op.Control != pc || op.Target != pt {
			t.Fatalf("gate %d: op (%d,%d) does not match mapping (%d,%d)",
				op.GateIndex, op.Control, op.Target, pc, pt)
		}
	}
	if next != sk.Len() {
		t.Fatalf("only %d of %d gates emitted", next, sk.Len())
	}
	if !mp.Equal(r.FinalMapping()) {
		t.Fatalf("final mapping %v ≠ %v", mp, r.FinalMapping())
	}
	return cost
}

// opsCostUnder prices an already-verified op stream under a different cost
// model, for cross-model comparisons.
func opsCostUnder(t *testing.T, sk *circuit.Skeleton, r *Result, cm *arch.CostModel) int {
	t.Helper()
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	cost := 0
	for _, op := range ops {
		switch {
		case op.Swap:
			cost += cm.SwapWeight(op.A, op.B)
		case op.Switched:
			cost += cm.HWeight(op.Control, op.Target)
		}
	}
	return cost
}

// TestWeightedBeatsUniformGrid3x3 is the headline acceptance check for the
// weighted objective: on grid3x3 with a calibration that penalizes exactly
// the couplings the paper-model plan uses, the weighted exact solve must
// route around them — its plan, verified gate by gate, prices strictly
// below the uniform plan under the calibrated weights.
func TestWeightedBeatsUniformGrid3x3(t *testing.T) {
	base := arch.Grid(3, 3)
	// Triangle interaction: no triangle exists in a grid, so every plan
	// needs at least one SWAP and the penalty below always bites.
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})

	uniform, err := Solve(bg, sk, base, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, sk, base, uniform)

	// Build a calibration file from the uniform plan: every SWAP edge it
	// crossed becomes 10× dearer (via the same JSON schema -calibration
	// loads).
	ops, err := uniform.Ops(sk)
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for _, op := range ops {
		if op.Swap {
			entries = append(entries, fmt.Sprintf(
				`{"a": %d, "b": %d, "swap": %d}`, op.A, op.B, 10*arch.PaperSwapUnit))
		}
	}
	if len(entries) == 0 {
		t.Fatal("uniform plan used no SWAPs; a triangle cannot embed in a grid")
	}
	cal := fmt.Sprintf(`{"name": "penalize-uniform", "edges": [%s]}`, strings.Join(entries, ","))
	cm, err := arch.ParseCalibration([]byte(cal))
	if err != nil {
		t.Fatal(err)
	}

	weighted, err := base.WithCostModel(cm)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := Solve(bg, sk, weighted, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	gotW := applyOpsWeighted(t, sk, weighted, wres)
	if gotW != wres.Cost {
		t.Fatalf("weighted op-stream cost %d ≠ result cost %d", gotW, wres.Cost)
	}
	uniformW := opsCostUnder(t, sk, uniform, cm)
	if wres.Cost >= uniformW {
		t.Fatalf("weighted plan costs %d, not below the uniform plan's %d under the calibration",
			wres.Cost, uniformW)
	}
	// The grid is translation-rich enough that routing around the penalty
	// costs nothing extra: the weighted optimum equals the paper optimum.
	// (The SAT engine needs a §4.1 subset restriction at m=9, so the DP
	// oracle carries this check; engine agreement is covered on QX4.)
	if wres.Cost != uniform.Cost {
		t.Errorf("weighted optimum %d, want %d (an unpenalized congruent placement exists)",
			wres.Cost, uniform.Cost)
	}
}

// nonUniformQX4 attaches a fixed asymmetric calibration to QX4: dearer
// swaps on two couplings, one dearer and one cheaper direction switch.
func nonUniformQX4(t *testing.T) *arch.Arch {
	t.Helper()
	cm, err := arch.NewCostModel("qx4-cal", arch.PaperSwapUnit, arch.PaperHUnit)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []error{
		cm.SetSwapWeight(1, 2, 10),
		cm.SetSwapWeight(2, 4, 21),
		cm.SetHWeight(2, 4, 8),
		cm.SetHWeight(3, 2, 2),
	} {
		if set != nil {
			t.Fatal(set)
		}
	}
	a, err := arch.QX4().WithCostModel(cm)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWeightedLowerBoundAdmissibleTable1: under a non-uniform calibration
// the admissible lower bound must still never exceed the DP oracle's
// proven weighted optimum, on every Table-1 benchmark.
func TestWeightedLowerBoundAdmissibleTable1(t *testing.T) {
	a := nonUniformQX4(t)
	for _, b := range revlib.Suite() {
		sk, err := circuit.ExtractSkeleton(b.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		pb := PermBefore(sk, StrategyAll)
		lb := admissibleLowerBound(encoder.Problem{Skeleton: sk, Arch: a, PermBefore: pb})
		dp, err := Solve(bg, sk, a, Options{Engine: EngineDP})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if lb > dp.Cost {
			t.Errorf("%s: weighted lower bound %d exceeds the optimum %d", b.Name, lb, dp.Cost)
		}
		verified := applyOpsWeighted(t, sk, a, dp)
		if verified != dp.Cost {
			t.Errorf("%s: op-stream weighted cost %d ≠ result cost %d", b.Name, verified, dp.Cost)
		}
	}
}

// TestWeightedEnginesAgreeRandom: DP and SAT must prove the same weighted
// optimum on random skeletons over the calibrated QX4 and a calibrated
// subset restriction.
func TestWeightedEnginesAgreeRandom(t *testing.T) {
	a := nonUniformQX4(t)
	for seed := int64(0); seed < 8; seed++ {
		sk := randomSkeleton(seed, 3, 4+int(seed%3))
		dp, err := Solve(bg, sk, a, Options{Engine: EngineDP})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sat, err := Solve(bg, sk, a, Options{Engine: EngineSAT})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if dp.Cost != sat.Cost {
			t.Errorf("seed %d: DP %d ≠ SAT %d", seed, dp.Cost, sat.Cost)
		}
		applyOpsWeighted(t, sk, a, dp)
		applyOpsWeighted(t, sk, a, sat)
	}

	// Subset restriction keeps the reindexed weights: solve on a 3-qubit
	// restriction and verify against its restricted model.
	sub, _ := a.Restrict([]int{1, 2, 4})
	if sub.Cost() == nil {
		t.Fatal("restriction dropped the cost model")
	}
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	p := encoder.Problem{Skeleton: sk, Arch: sub, PermBefore: PermBefore(sk, StrategyAll)}
	dp, err := SolveDP(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if lb := admissibleLowerBound(p); lb > dp.Cost {
		t.Errorf("subset: weighted lower bound %d exceeds optimum %d", lb, dp.Cost)
	}
	applyOpsWeighted(t, sk, sub, dp)
}

// TestWeightedLowerBoundUsesCheapestWeights: the bound scales its SWAP
// term by the cheapest edge and its switch term by the cheapest directed
// pair; a model with a cheap outlier must lower the bound accordingly.
func TestWeightedLowerBoundUsesCheapestWeights(t *testing.T) {
	a := nonUniformQX4(t)
	cm := a.Cost()
	if got := cm.MinSwapWeight(a.UndirectedEdges()); got != arch.PaperSwapUnit {
		t.Errorf("MinSwapWeight = %d, want %d (unpenalized edges remain)", got, arch.PaperSwapUnit)
	}
	if got := cm.MinHWeight(a.Pairs()); got != 2 {
		t.Errorf("MinHWeight = %d, want 2 (the cheap switch on (3,2))", got)
	}
	edges := []perm.Edge{{A: 1, B: 2}, {A: 2, B: 4}}
	if got := cm.MinSwapWeight(edges); got != 10 {
		t.Errorf("MinSwapWeight over penalized edges = %d, want 10", got)
	}
}

// TestWeightedOpsAllocations rebuilds the op stream — the work of every
// cache hit — of a 3-qubit solution on QX5 with edge {1,2} reweighted to
// 20, and checks that it searches from the frame mapping instead of
// building the 3360-mapping weighted table, which allocated hundreds of
// thousands of times and took seconds per call. The solution is written
// out rather than solved: a DP solve builds that same table. Between its
// two frames logical qubit 0 moves from physical qubit 1 to 2, where the
// direct SWAP (20) undercuts the detour through qubits 0 and 15 (3·7).
func TestWeightedOpsAllocations(t *testing.T) {
	cm := arch.PaperCostModel()
	if err := cm.SetSwapWeight(1, 2, 20); err != nil {
		t.Fatal(err)
	}
	a := arch.QX5().MustWithCostModel(cm)
	sk := &circuit.Skeleton{NumQubits: 3, Gates: []circuit.CNOTGate{
		{Control: 1, Target: 2, Index: 0}, // physical 3→4 in frame 0
		{Control: 0, Target: 1, Index: 1}, // physical 2→3 in frame 1
	}}
	r := &Result{
		Cost:     20,
		WorkArch: a,
		Solution: &encoder.Solution{
			Cost:          20,
			FrameMappings: []perm.Mapping{{1, 3, 4}, {2, 3, 4}},
			GateFrame:     []int{0, 1},
			PermSwaps:     []int{1},
			Switched:      []bool{false, false},
		},
	}
	if got := applyOpsWeighted(t, sk, a, r); got != 20 {
		t.Fatalf("op stream costs %d, want the direct SWAP's 20", got)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := r.Ops(sk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("Ops allocated %.0f times per call, want at most 2000", allocs)
	}
	t.Logf("%.0f allocations per Ops call", allocs)
}
