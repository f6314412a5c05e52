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

// skeletonCircuit returns the circuit of sk's CNOTs alone.
func skeletonCircuit(sk *circuit.Skeleton) *circuit.Circuit {
	c := circuit.New(sk.NumQubits)
	for _, g := range sk.Gates {
		c.AddCNOT(g.Control, g.Target)
	}
	return c
}

// build lays ops out as gates on a, for a circuit of CNOTs only: each CNOT
// op as its physical CNOT, between H pairs when switched, and each SWAP op
// as CNOT(p→q)·CNOT(q→p)·CNOT(p→q) with a CNOT that a does not allow
// turned round between H pairs. It checks nothing, so corrupted ops give
// the gates they say.
func build(a *arch.Arch, ops []circuit.MappedOp) *circuit.Circuit {
	c := circuit.New(a.NumQubits())
	switched := func(x, y int) { c.AddH(x).AddH(y).AddCNOT(x, y).AddH(x).AddH(y) }
	unit := func(x, y int) {
		if a.Allows(x, y) {
			c.AddCNOT(x, y)
		} else {
			switched(y, x)
		}
	}
	for _, op := range ops {
		switch {
		case op.Swap:
			p, q := op.A, op.B
			if !a.Allows(p, q) {
				p, q = q, p
			}
			unit(p, q)
			unit(q, p)
			unit(p, q)
		case op.Switched:
			switched(op.Control, op.Target)
		default:
			c.AddCNOT(op.Control, op.Target)
		}
	}
	return c
}

// TestOpStreamAcceptsExactResult: Translation reads back the exact answer
// to Figure 1b on QX4 with its own op stream as witness, and the SWAP ops
// of that stream carry the initial layout onto the final one.
func TestOpStreamAcceptsExactResult(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()
	if err := Translation(skeletonCircuit(sk), build(a, ops), a, ops, r.InitialMapping(), r.FinalMapping()); err != nil {
		t.Fatal(err)
	}
	final := r.InitialMapping()
	for _, op := range ops {
		if op.Swap {
			final = final.ApplySwap(op.A, op.B)
		}
	}
	if !final.Equal(r.FinalMapping()) {
		t.Errorf("final = %v, want %v", final, r.FinalMapping())
	}
}

func TestOpStreamRejectsCorruption(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()
	orig, mapped := skeletonCircuit(sk), build(a, ops)
	initial, final := r.InitialMapping(), r.FinalMapping()

	// Dropping a CNOT: from the witness alone, then from the gates alone.
	var chopped []circuit.MappedOp
	for _, op := range ops {
		if !op.Swap && op.GateIndex == sk.Len()-1 {
			continue
		}
		chopped = append(chopped, op)
	}
	if err := Translation(orig, mapped, a, chopped, initial, final); err == nil {
		t.Error("witness missing a CNOT op should be caught")
	}
	if err := Translation(orig, build(a, chopped), a, ops, initial, final); err == nil {
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
	if err := Translation(orig, build(a, flipped), a, flipped, initial, final); err == nil {
		t.Error("flipped CNOT should be caught")
	}

	// Bad initial mapping length.
	if err := Translation(orig, mapped, a, ops, perm.Mapping{0, 1}, final); err == nil {
		t.Error("short mapping should be caught")
	}
}

// TestSkeletonOpsAcceptsExactResult: Translation and the simulation both
// accept the exact answer to Figure 1b on QX4.
func TestSkeletonOpsAcceptsExactResult(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()
	orig, mapped := skeletonCircuit(sk), build(a, ops)
	if err := Translation(orig, mapped, a, ops, r.InitialMapping(), r.FinalMapping()); err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(orig, mapped, a.NumQubits(), r.InitialMapping(), r.FinalMapping()); err != nil {
		t.Fatal(err)
	}
}

// TestSkeletonOpsAcceptsHeuristicResult: Translation and the simulation
// both accept a stochastic-heuristic answer to Figure 1b on QX4.
func TestSkeletonOpsAcceptsHeuristicResult(t *testing.T) {
	sk := circuit.Figure1b()
	a := arch.QX4()
	h, err := heuristic.Map(context.Background(), sk, a, heuristic.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	orig, mapped := skeletonCircuit(sk), build(a, h.Ops)
	if err := Translation(orig, mapped, a, h.Ops, h.InitialMapping, h.FinalMapping); err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(orig, mapped, a.NumQubits(), h.InitialMapping, h.FinalMapping); err != nil {
		t.Fatal(err)
	}
}

// TestSkeletonOpsCatchesWrongGate: a CNOT laid out the other way round
// computes a different circuit, which both checks reject.
func TestSkeletonOpsCatchesWrongGate(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()
	bad := append([]circuit.MappedOp(nil), ops...)
	for i, op := range bad {
		if !op.Swap {
			// Pretend the gate was switched when it was not (or vice
			// versa): the realized direction reverses.
			bad[i].Switched = !op.Switched
			break
		}
	}
	orig, mapped := skeletonCircuit(sk), build(a, bad)
	if err := Translation(orig, mapped, a, bad, r.InitialMapping(), r.FinalMapping()); err == nil {
		t.Error("wrong switch flag should fail the translation check")
	}
	if err := Equivalent(orig, mapped, a.NumQubits(), r.InitialMapping(), r.FinalMapping()); err == nil {
		t.Error("wrong switch flag should fail the simulation")
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
	orig, mapped := skeletonCircuit(sk), build(a, ops)
	initial, final := r.InitialMapping(), r.FinalMapping()

	// Extra CNOT op beyond the skeleton: in the witness alone, then in
	// the gates alone.
	extra := append(append([]circuit.MappedOp(nil), ops...),
		circuit.MappedOp{GateIndex: sk.Len(), Control: 1, Target: 0})
	if err := Translation(orig, mapped, a, extra, initial, final); err == nil {
		t.Error("extra op should be caught")
	}
	if err := Translation(orig, build(a, extra), a, ops, initial, final); err == nil {
		t.Error("extra gate should be caught")
	}

	// Two CNOTs realizing different directions, out of order.
	realized := func(op circuit.MappedOp) [2]int {
		if op.Switched {
			return [2]int{op.Target, op.Control}
		}
		return [2]int{op.Control, op.Target}
	}
	reordered := append([]circuit.MappedOp(nil), ops...)
	exchanged := false
	for k := 0; k+1 < len(reordered) && !exchanged; k++ {
		x, y := reordered[k], reordered[k+1]
		if !x.Swap && !y.Swap && realized(x) != realized(y) {
			reordered[k], reordered[k+1] = y, x
			exchanged = true
		}
	}
	if !exchanged {
		t.Fatal("no two neighbouring CNOT ops to exchange")
	}
	if err := Translation(orig, build(a, reordered), a, reordered, initial, final); err == nil {
		t.Error("CNOTs out of order should be caught")
	}

	// SWAP on an uncoupled pair: in the witness alone, then in the gates.
	badSwap := append([]circuit.MappedOp{{Swap: true, A: 0, B: 4}}, ops...)
	if err := Translation(orig, mapped, a, badSwap, initial, final); err == nil {
		t.Error("uncoupled SWAP op should be caught")
	}
	if err := Translation(orig, build(a, badSwap), a, badSwap, initial, final); err == nil {
		t.Error("uncoupled SWAP should be caught")
	}

	// Non-injective initial mapping.
	if err := Translation(orig, mapped, a, ops, perm.Mapping{0, 0, 1, 2}, final); err == nil {
		t.Error("invalid mapping should be caught")
	}
}

// TestSkeletonOpsCatchesExtraSwap: a stray SWAP between a used and the
// unused qubit changes the final permutation, so both checks reject it
// against the same layouts; without its gates, the witness alone is
// rejected too.
func TestSkeletonOpsCatchesExtraSwap(t *testing.T) {
	sk, r, ops := exactOps(t)
	a := arch.QX4()
	initial, final := r.InitialMapping(), r.FinalMapping()
	free := unusedPhys(final, a.NumQubits())
	var stray circuit.MappedOp
	for _, e := range a.UndirectedEdges() {
		if e.A == free || e.B == free {
			stray = circuit.MappedOp{Swap: true, A: e.A, B: e.B}
			break
		}
	}
	bad := append(append([]circuit.MappedOp(nil), ops...), stray)
	orig, mapped := skeletonCircuit(sk), build(a, bad)
	if err := Translation(orig, mapped, a, bad, initial, final); err == nil {
		t.Error("stray SWAP should fail the translation check")
	}
	if err := Equivalent(orig, mapped, a.NumQubits(), initial, final); err == nil {
		t.Error("stray SWAP should fail the simulation")
	}
	if err := Translation(orig, build(a, ops), a, bad, initial, final); err == nil {
		t.Error("stray SWAP op without its gates should be caught")
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

// unitForms returns every gate sequence Translation reads as one unit
// realizing CNOT(x→y) on a pair coupled both ways: the native CNOT, and
// the reversed CNOT between an H pair on each side, each pair in either
// order.
func unitForms(x, y int) [][]circuit.Gate {
	forms := [][]circuit.Gate{{circuit.CNOT(x, y)}}
	for _, pre := range [2][2]int{{x, y}, {y, x}} {
		for _, post := range [2][2]int{{x, y}, {y, x}} {
			forms = append(forms, []circuit.Gate{
				circuit.H(pre[0]), circuit.H(pre[1]), circuit.CNOT(y, x), circuit.H(post[0]), circuit.H(post[1]),
			})
		}
	}
	return forms
}

// TestTranslationBlocksAreIdentities proves by simulation the identities
// of paper Fig. 3 that Translation's soundness rests on. Every form it
// reads as a CNOT, native or inside the 4-H switch with either H order on
// each side, equals that CNOT. Of all sequences of three units on a pair,
// in any directions and any mix of native and H-wrapped forms, it reads
// exactly those whose directions alternate as a SWAP block, under either
// orientation of the witness, and each of them equals SWAP(p,q).
func TestTranslationBlocksAreIdentities(t *testing.T) {
	both := arch.MustNew("both", 2, []arch.Pair{{Control: 0, Target: 1}, {Control: 1, Target: 0}})
	id, swapped := perm.Mapping{0, 1}, perm.Mapping{1, 0}
	dirs := [2][2]int{{0, 1}, {1, 0}}
	for _, d := range dirs {
		want := circuit.New(2).AddCNOT(d[0], d[1])
		for _, form := range unitForms(d[0], d[1]) {
			mapped := circuit.New(2).MustAppend(form...)
			if err := Translation(want, mapped, both, []circuit.MappedOp{{}}, id, id); err != nil {
				t.Errorf("%v not read as CNOT(%d→%d): %v", form, d[0], d[1], err)
			}
			if err := Equivalent(want, mapped, 2, id, id); err != nil {
				t.Errorf("%v ≠ CNOT(%d→%d): %v", form, d[0], d[1], err)
			}
		}
	}

	swap := circuit.New(2).AddSWAP(0, 1)
	empty := circuit.New(2)
	blocks := 0
	for d := 0; d < 8; d++ { // bit i: direction of unit i
		var units [3][][]circuit.Gate
		for i := range units {
			dir := dirs[d>>i&1]
			units[i] = unitForms(dir[0], dir[1])
		}
		alternating := d == 0b010 || d == 0b101
		for _, u0 := range units[0] {
			for _, u1 := range units[1] {
				for _, u2 := range units[2] {
					mapped := circuit.New(2).MustAppend(u0...).MustAppend(u1...).MustAppend(u2...)
					for _, op := range []circuit.MappedOp{{Swap: true, A: 0, B: 1}, {Swap: true, A: 1, B: 0}} {
						err := Translation(empty, mapped, both, []circuit.MappedOp{op}, id, swapped)
						if (err == nil) != alternating {
							t.Fatalf("%v read as SWAP block: %v, want %v (err %v)", mapped, err == nil, alternating, err)
						}
					}
					if alternating {
						blocks++
						if err := Equivalent(swap, mapped, 2, id, id); err != nil {
							t.Errorf("%v ≠ SWAP(0,1): %v", mapped, err)
						}
					}
				}
			}
		}
	}
	if blocks != 2*5*5*5 {
		t.Errorf("%d SWAP blocks checked, want 250", blocks)
	}
}

// TestTranslationRejectsMalformedInput: layouts that do not fit, an input
// the pipeline never maps, and a mapped circuit larger than the device.
func TestTranslationRejectsMalformedInput(t *testing.T) {
	qx4 := arch.QX4()
	orig := circuit.New(2).AddCNOT(1, 0)
	mapped := circuit.New(5).AddCNOT(1, 0)
	ops := []circuit.MappedOp{{Control: 1, Target: 0}}
	id := perm.Mapping{0, 1}
	if err := Translation(orig, mapped, qx4, ops, id, id); err != nil {
		t.Fatalf("well-formed case rejected: %v", err)
	}
	for name, c := range map[string]struct {
		orig, mapped   *circuit.Circuit
		initial, final perm.Mapping
	}{
		"short initial":          {orig, mapped, perm.Mapping{0}, id},
		"short final":            {orig, mapped, id, perm.Mapping{0}},
		"non-injective initial":  {orig, mapped, perm.Mapping{0, 0}, id},
		"initial off the device": {orig, mapped, perm.Mapping{0, 5}, id},
		"negative initial":       {orig, mapped, perm.Mapping{-1, 0}, id},
		"mapped too wide":        {orig, circuit.New(6).AddCNOT(1, 0), id, id},
		"toffoli in the input":   {circuit.New(3).AddMCT([]int{0, 1}, 2), mapped, perm.Mapping{0, 1, 2}, perm.Mapping{0, 1, 2}},
		"swap in the input":      {circuit.New(2).AddSWAP(0, 1), circuit.New(5), id, perm.Mapping{1, 0}},
	} {
		if err := Translation(c.orig, c.mapped, qx4, ops, c.initial, c.final); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
