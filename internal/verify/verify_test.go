package verify

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/heuristic"
	"repro/internal/perm"
)

func TestCouplingCompliant(t *testing.T) {
	a := arch.QX4()
	good := circuit.New(5).AddH(0).AddCNOT(1, 0).AddCNOT(3, 2)
	if err := CouplingCompliant(good, a); err != nil {
		t.Errorf("compliant circuit rejected: %v", err)
	}
	bad := circuit.New(5).AddCNOT(0, 1) // (0,1) ∉ CM (only (1,0) is)
	if err := CouplingCompliant(bad, a); err == nil {
		t.Error("reversed CNOT should be rejected")
	}
	swapful := circuit.New(5).AddSWAP(0, 1)
	if err := CouplingCompliant(swapful, a); err == nil {
		t.Error("undec SWAP should be rejected")
	}
	tooBig := circuit.New(6).AddH(5)
	if err := CouplingCompliant(tooBig, a); err == nil {
		t.Error("oversized circuit should be rejected")
	}
}

// exactOps solves Figure 1b on QX4 and returns everything for verification.
func exactOps(t *testing.T) (*circuit.Skeleton, *exact.Result, []circuit.MappedOp) {
	t.Helper()
	sk := circuit.Figure1b()
	r, err := exact.Solve(context.Background(), sk, arch.QX4(), exact.Options{Engine: exact.EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := r.Ops(sk)
	if err != nil {
		t.Fatal(err)
	}
	return sk, r, ops
}

func TestOpStreamAcceptsExactResult(t *testing.T) {
	sk, r, ops := exactOps(t)
	final, err := OpStream(sk, arch.QX4(), ops, r.InitialMapping())
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(r.FinalMapping()) {
		t.Errorf("final = %v, want %v", final, r.FinalMapping())
	}
}

func TestOpStreamRejectsCorruption(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()

	// Dropping a CNOT: too few gates.
	var chopped []circuit.MappedOp
	for _, op := range ops {
		if !op.Swap && op.GateIndex == sk.Len()-1 {
			continue
		}
		chopped = append(chopped, op)
	}
	if _, err := OpStream(sk, a, chopped, r.InitialMapping()); err == nil {
		t.Error("missing gate should be caught")
	}

	// Flipping a direction without the Switched flag.
	flipped := append([]circuit.MappedOp(nil), ops...)
	for i, op := range flipped {
		if !op.Swap {
			flipped[i].Control, flipped[i].Target = op.Target, op.Control
			break
		}
	}
	if _, err := OpStream(sk, a, flipped, r.InitialMapping()); err == nil {
		t.Error("flipped CNOT should be caught")
	}

	// Bad initial mapping length.
	if _, err := OpStream(sk, a, ops, perm.Mapping{0, 1}); err == nil {
		t.Error("short mapping should be caught")
	}
}

func TestSkeletonOpsAcceptsExactResult(t *testing.T) {
	sk, r, ops := exactOps(t)
	if err := SkeletonOps(sk, 5, ops, r.InitialMapping(), r.FinalMapping()); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonOpsAcceptsHeuristicResult(t *testing.T) {
	sk := circuit.Figure1b()
	h, err := heuristic.Map(context.Background(), sk, arch.QX4(), heuristic.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := SkeletonOps(sk, 5, h.Ops, h.InitialMapping, h.FinalMapping); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonOpsCatchesWrongGate(t *testing.T) {
	sk, r, ops := exactOps(t)
	bad := append([]circuit.MappedOp(nil), ops...)
	for i, op := range bad {
		if !op.Swap {
			// Pretend the gate was switched when it was not (or vice
			// versa): the GF(2) semantics change.
			bad[i].Switched = !op.Switched
			break
		}
	}
	if err := SkeletonOps(sk, 5, bad, r.InitialMapping(), r.FinalMapping()); err == nil {
		t.Error("wrong switch flag should fail the GF(2) check")
	}
}

func TestEquivalentOnHandBuiltMapping(t *testing.T) {
	// Original: CNOT(q0→q1). Mapped to QX4 with q0→p1, q1→p0: CNOT(p1→p0)
	// is natively allowed; identity layouts elsewhere.
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(5).AddCNOT(1, 0)
	if err := Equivalent(orig, mapped, 5, perm.Mapping{1, 0}, perm.Mapping{1, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentDirectionSwitch(t *testing.T) {
	// Original CNOT(q0→q1) with q0→p0, q1→p1 on QX4 needs the 4-H trick:
	// H p0, H p1, CNOT(p1→p0), H p0, H p1.
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(5).
		AddH(0).AddH(1).AddCNOT(1, 0).AddH(0).AddH(1)
	if err := Equivalent(orig, mapped, 5, perm.Mapping{0, 1}, perm.Mapping{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentCatchesWrongCircuit(t *testing.T) {
	orig := circuit.New(2).AddCNOT(0, 1)
	wrong := circuit.New(5).AddCNOT(1, 0).AddX(2) // stray X on unused qubit
	err := Equivalent(orig, wrong, 5, perm.Mapping{1, 0}, perm.Mapping{1, 0})
	if err == nil {
		t.Fatal("stray gate should break equivalence")
	}
	if !strings.Contains(err.Error(), "fidelity") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestEquivalentWithSwapRelocation(t *testing.T) {
	// Original: CNOT(q0→q1) twice with a swap in between is just two
	// CNOTs; simpler: verify a mapped circuit whose final layout differs
	// from the initial one. Original: CNOT(q0→q1). Mapped: SWAP p0,p1
	// implemented as 3 CNOTs (only directions allowed by QX4), then
	// CNOT realizing the logical gate from the new layout.
	orig := circuit.New(2).AddCNOT(0, 1)
	// SWAP p0,p1 on QX4: CNOT(1→0), H-switched CNOT(0→1), CNOT(1→0);
	// then the logical CNOT itself from the post-swap layout.
	mapped := circuit.New(5).
		AddCNOT(1, 0).
		AddH(0).AddH(1).AddCNOT(1, 0).AddH(0).AddH(1).
		AddCNOT(1, 0).
		AddCNOT(1, 0)
	// Initial q0→p0, q1→p1; after the SWAP q0→p1, q1→p0; the final
	// CNOT(p1→p0) realizes CNOT(q0→q1).
	if err := Equivalent(orig, mapped, 5, perm.Mapping{0, 1}, perm.Mapping{1, 0}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalentRejectsNaNAmplitudes: a circuit that simulates to NaN
// amplitudes proves nothing, so it must not verify as equivalent to
// anything, itself included. Every comparison with NaN is false, so the
// fidelity and phase tests have to fail on it rather than pass. Finite
// angles get there when φ+λ overflows: U's e^{i(φ+λ)} entry is e^{i·∞} =
// NaN. A non-finite angle is refused earlier, by gate validation.
func TestEquivalentRejectsNaNAmplitudes(t *testing.T) {
	nan := circuit.U(0, 0, math.MaxFloat64, math.MaxFloat64)
	orig := circuit.New(2).MustAppend(nan, circuit.CNOT(0, 1))
	id := perm.Mapping{0, 1}
	for name, mapped := range map[string]*circuit.Circuit{
		"without the cnot": circuit.New(2).MustAppend(nan),
		"itself":           orig,
	} {
		if err := Equivalent(orig, mapped, 2, id, id); err == nil {
			t.Errorf("%s: NaN amplitudes verified as equivalent", name)
		}
	}

	for _, angle := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		c := circuit.New(2)
		if err := c.Append(circuit.U(0, angle, 0, 0)); err == nil {
			t.Errorf("U(%g, 0, 0) appended; a non-finite angle must be refused", angle)
		}
	}
}

func TestEquivalentRejectsOversized(t *testing.T) {
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(13).AddCNOT(1, 0)
	if err := Equivalent(orig, mapped, 13, perm.Mapping{1, 0}, perm.Mapping{1, 0}); err == nil {
		t.Error("13 qubits should exceed simulator limit")
	}
}

func TestOpStreamMoreCorruption(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()

	// Extra CNOT op beyond the skeleton.
	extra := append(append([]circuit.MappedOp(nil), ops...),
		circuit.MappedOp{GateIndex: sk.Len(), Control: 1, Target: 0})
	if _, err := OpStream(sk, a, extra, r.InitialMapping()); err == nil {
		t.Error("extra op should be caught")
	}

	// Wrong gate index ordering.
	reordered := append([]circuit.MappedOp(nil), ops...)
	for i, op := range reordered {
		if !op.Swap {
			reordered[i].GateIndex = op.GateIndex + 1
			break
		}
	}
	if _, err := OpStream(sk, a, reordered, r.InitialMapping()); err == nil {
		t.Error("wrong gate index should be caught")
	}

	// SWAP on an uncoupled pair.
	badSwap := append([]circuit.MappedOp{{Swap: true, A: 0, B: 4}}, ops...)
	if _, err := OpStream(sk, a, badSwap, r.InitialMapping()); err == nil {
		t.Error("uncoupled SWAP should be caught")
	}

	// Non-injective initial mapping.
	if _, err := OpStream(sk, a, ops, perm.Mapping{0, 0, 1, 2}); err == nil {
		t.Error("invalid mapping should be caught")
	}
}

func TestSkeletonOpsCatchesExtraSwap(t *testing.T) {
	sk, r, ops := exactOps(t)
	// A stray SWAP between used and unused qubits changes the final
	// permutation and must fail the GF(2) check against the same layouts.
	bad := append(append([]circuit.MappedOp(nil), ops...),
		circuit.MappedOp{Swap: true, A: r.FinalMapping()[0], B: unusedPhys(r.FinalMapping(), 5)})
	if err := SkeletonOps(sk, 5, bad, r.InitialMapping(), r.FinalMapping()); err == nil {
		t.Error("stray SWAP should fail GF(2) check")
	}
}

// unusedPhys returns a physical qubit not present in mp.
func unusedPhys(mp perm.Mapping, m int) int {
	used := map[int]bool{}
	for _, i := range mp {
		used[i] = true
	}
	for i := 0; i < m; i++ {
		if !used[i] {
			return i
		}
	}
	panic("no unused qubit")
}

func TestEquivalentLayoutSizeMismatch(t *testing.T) {
	orig := circuit.New(2).AddCNOT(0, 1)
	mapped := circuit.New(5).AddCNOT(1, 0)
	if err := Equivalent(orig, mapped, 5, perm.Mapping{1}, perm.Mapping{1, 0}); err == nil {
		t.Error("short layout should be rejected")
	}
}

func TestSkeletonOpsRejectsHuge(t *testing.T) {
	sk := &circuit.Skeleton{NumQubits: 2, Gates: []circuit.CNOTGate{{Control: 0, Target: 1}}}
	if err := SkeletonOps(sk, 65, nil, perm.Mapping{0, 1}, perm.Mapping{0, 1}); err == nil {
		t.Error("m > 64 should be rejected")
	}
}
