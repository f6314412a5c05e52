// Package verify establishes that mapped circuits are correct: compliant
// with the target architecture's CNOT constraints and equivalent to the
// original circuit under the chosen initial/final qubit layouts.
//
// Three checks are provided:
//
//  1. CouplingCompliant — static constraint check (paper Definition 2).
//  2. Translation — a linear-time check that the mapped circuit is the
//     original with only the paper's SWAP blocks and 4-H direction
//     switches inserted (Fig. 3 and 5). Acceptance implies equivalence at
//     any device size; the pipeline runs it on every mapped circuit.
//  3. Equivalent — unitary equivalence by basis-state simulation, for
//     devices of at most sim.MaxQubits qubits. It checks circuits the
//     peephole optimizer rewrote, which Translation cannot parse, and is
//     Translation's test oracle.
package verify

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/sim"
)

// CouplingCompliant checks that the circuit uses only elementary gates and
// that every CNOT's (control, target) pair is natively allowed by the
// architecture. SWAP gates are rejected: a compliant circuit must have them
// decomposed.
func CouplingCompliant(c *circuit.Circuit, a *arch.Arch) error {
	if c.NumQubits() > a.NumQubits() {
		return fmt.Errorf("verify: circuit has %d qubits, %s has %d", c.NumQubits(), a, a.NumQubits())
	}
	for i, g := range c.Gates() {
		switch {
		case g.Kind.IsSingleQubit():
			// Always executable.
		case g.Kind == circuit.KindCNOT:
			if !a.Allows(g.Qubits[0], g.Qubits[1]) {
				return fmt.Errorf("verify: gate %d: CNOT(p%d→p%d) violates coupling map of %s",
					i, g.Qubits[0], g.Qubits[1], a.Name())
			}
		default:
			return fmt.Errorf("verify: gate %d: %s is not elementary", i, g.Kind)
		}
	}
	return nil
}

// Translation checks that mapped is original translated onto a (paper
// Fig. 5), by translation validation (Pnueli, Siegel and Singerman, TACAS
// 1998; Necula, PLDI 2000). It walks mapped once with a logical→physical
// layout that starts at initial and accepts only
//
//   - each single-qubit gate of original, of the same kind and with
//     bit-identical angles, on its logical qubit's current physical qubit;
//   - each CNOT of original (or MCT with one control) as one unit in its
//     direction on its qubits' current physical pair;
//   - wherever ops has a SWAP(p,q), three units on p and q, each the
//     reverse of the one before: CNOT(x→y)·CNOT(y→x)·CNOT(x→y) swaps the
//     states of x and y, and the layout swaps with them.
//
// A unit is a native CNOT, or the native CNOT the other way round between
// an H on each qubit before and after, each pair in either order (paper
// Fig. 3). After the last input gate and the SWAPs that follow it nothing
// may remain, and the layout must end at final.
//
// ops is only a parse witness: it says where SWAP blocks stand, which the
// gates alone do not (a SWAP on the next CNOT's own pair can begin with
// that CNOT's native gate), and its CNOT ops are counted, never read.
// Each accepted form computes what the layout update says
// (TestTranslationBlocksAreIdentities proves every form by simulation),
// and free physical qubits are only ever swapped, so whatever ops says an
// accepted mapped is equivalent to original under initial and final.
// Time and space are linear in the sizes of the circuits, ops and a.
func Translation(original, mapped *circuit.Circuit, a *arch.Arch, ops []circuit.MappedOp, initial, final perm.Mapping) error {
	n, m := original.NumQubits(), a.NumQubits()
	if mapped.NumQubits() > m {
		return fmt.Errorf("verify: mapped circuit has %d qubits, %s has %d", mapped.NumQubits(), a, m)
	}
	if len(initial) != n || len(final) != n {
		return fmt.Errorf("verify: layout sizes %d/%d for %d qubits", len(initial), len(final), n)
	}
	buf := make([]int, n+m)
	t := translator{a: a, gates: mapped.Gates(), ops: ops, layout: buf[:n], holder: buf[n:]}
	for p := range t.holder {
		t.holder[p] = -1
	}
	for j, p := range initial {
		if p < 0 || p >= m || t.holder[p] >= 0 {
			return fmt.Errorf("verify: initial layout %v is not injective into %d qubits", initial, m)
		}
		t.layout[j], t.holder[p] = p, j
	}
	for i, g := range original.Gates() {
		var err error
		switch {
		case g.Kind.IsSingleQubit():
			err = t.single(g)
		case g.Kind == circuit.KindCNOT || g.Kind == circuit.KindMCT && len(g.Qubits) == 2:
			err = t.cnot(g.Qubits[0], g.Qubits[1])
		default:
			err = fmt.Errorf("%s is not elementary", g.Kind)
		}
		if err != nil {
			return fmt.Errorf("verify: input gate %d: %w", i, err)
		}
	}
	if err := t.swaps(); err != nil {
		return fmt.Errorf("verify: after the last input gate: %w", err)
	}
	if t.op < len(ops) {
		return fmt.Errorf("verify: op %d: CNOT op beyond the input's CNOTs", t.op)
	}
	if t.k < len(t.gates) {
		return fmt.Errorf("verify: mapped gate %d (%s) follows the whole input", t.k, t.gates[t.k])
	}
	for j, p := range t.layout {
		if p != final[j] {
			return fmt.Errorf("verify: layout ends at %v, final layout is %v", t.layout, final)
		}
	}
	return nil
}

// translator is Translation's cursor: the next mapped gate and witness op,
// and the layout in both directions.
type translator struct {
	a      *arch.Arch
	gates  []circuit.Gate // the mapped circuit
	k      int            // next unread mapped gate
	ops    []circuit.MappedOp
	op     int   // next unread witness op
	layout []int // logical → physical
	holder []int // physical → logical, −1 when free
}

// single reads input gate g, a single-qubit gate.
func (t *translator) single(g circuit.Gate) error {
	p := t.layout[g.Qubits[0]]
	if t.k < len(t.gates) {
		h := t.gates[t.k]
		if h.Kind == g.Kind && h.Qubits[0] == p &&
			math.Float64bits(h.Theta) == math.Float64bits(g.Theta) &&
			math.Float64bits(h.Phi) == math.Float64bits(g.Phi) &&
			math.Float64bits(h.Lambda) == math.Float64bits(g.Lambda) {
			t.k++
			return nil
		}
	}
	return t.mismatch("%s on p%d", g, p)
}

// cnot reads the SWAP blocks the witness puts before the input CNOT
// between logical qubits c and tg, then the CNOT itself.
func (t *translator) cnot(c, tg int) error {
	if err := t.swaps(); err != nil {
		return err
	}
	if t.op == len(t.ops) {
		return fmt.Errorf("op stream ends before this CNOT")
	}
	t.op++
	pc, pt := t.layout[c], t.layout[tg]
	if x, y, k, ok := t.unit(t.k, pc, pt); ok && x == pc && y == pt {
		t.k = k
		return nil
	}
	return t.mismatch("CNOT(p%d→p%d)", pc, pt)
}

// swaps reads a SWAP block, CNOT(x→y)·CNOT(y→x)·CNOT(x→y) with {x,y} the
// op's pair, for each SWAP op from the witness cursor up to its next CNOT
// op.
func (t *translator) swaps() error {
	for ; t.op < len(t.ops) && t.ops[t.op].Swap; t.op++ {
		p, q := t.ops[t.op].A, t.ops[t.op].B
		x, y, k, ok0 := t.unit(t.k, p, q)
		c1, t1, k, ok1 := t.unit(k, p, q)
		c2, t2, k, ok2 := t.unit(k, p, q)
		if !ok0 || !ok1 || !ok2 || c1 != y || t1 != x || c2 != x || t2 != y {
			return t.mismatch("op %d: SWAP(p%d,p%d) block", t.op, p, q)
		}
		// The units matched mapped gates, so p and q are distinct physical
		// qubits of a.
		t.k = k
		lp, lq := t.holder[p], t.holder[q]
		t.holder[p], t.holder[q] = lq, lp
		if lp >= 0 {
			t.layout[lp] = q
		}
		if lq >= 0 {
			t.layout[lq] = p
		}
	}
	return nil
}

// unit reads one CNOT between physical qubits p and q from mapped gate k
// on: a native CNOT, or a native CNOT between an H pair on p and q on
// each side, which realizes the CNOT the other way round. It returns the
// realized control and target and the index after the unit.
func (t *translator) unit(k, p, q int) (c, tg, next int, ok bool) {
	wrapped := t.hPair(k, p, q)
	if wrapped {
		k += 2
	}
	if k >= len(t.gates) || t.gates[k].Kind != circuit.KindCNOT {
		return 0, 0, 0, false
	}
	c, tg = t.gates[k].Qubits[0], t.gates[k].Qubits[1]
	if !(c == p && tg == q || c == q && tg == p) || !t.a.Allows(c, tg) {
		return 0, 0, 0, false
	}
	k++
	if wrapped {
		if !t.hPair(k, p, q) {
			return 0, 0, 0, false
		}
		k += 2
		c, tg = tg, c
	}
	return c, tg, k, true
}

// hPair reports whether mapped gates k and k+1 are an H on p and an H on
// q, in either order.
func (t *translator) hPair(k, p, q int) bool {
	if k+1 >= len(t.gates) {
		return false
	}
	g, h := t.gates[k], t.gates[k+1]
	if g.Kind != circuit.KindH || h.Kind != circuit.KindH {
		return false
	}
	x, y := g.Qubits[0], h.Qubits[0]
	return x == p && y == q || x == q && y == p
}

// mismatch reports that the next mapped gate does not begin the expected
// translation.
func (t *translator) mismatch(format string, args ...any) error {
	got := "the end of the circuit"
	if t.k < len(t.gates) {
		got = t.gates[t.k].String()
	}
	return fmt.Errorf("mapped gate %d is %s, want "+format, append([]any{t.k, got}, args...)...)
}

// Equivalent performs full unitary equivalence checking by basis-state
// simulation: for every computational basis state of the logical qubits,
// the mapped circuit (over the architecture's physical qubits, starting
// from the layout-translated basis state) must produce the same state as
// the original, relocated by the final layout, up to one uniform global
// phase. Unused physical qubits must start and end in |0⟩.
//
// Both circuits are compiled once (sim.Compile: gates validated, matrices
// computed) and their two state vectors and the expected-state buffer are
// reused across the basis inputs; the amplitudes, hence every fidelity and
// phase decision, are those of simulating each input afresh.
//
// Cost is O(2^n · 2^m) amplitudes; intended for the ≤ 5-qubit circuits and
// devices of the paper's evaluation (hard limit sim.MaxQubits).
func Equivalent(original, mapped *circuit.Circuit, m int, initial, final perm.Mapping) error {
	n := original.NumQubits()
	if m > sim.MaxQubits {
		return fmt.Errorf("verify: %d physical qubits exceed simulator limit %d", m, sim.MaxQubits)
	}
	if len(initial) != n || len(final) != n {
		return fmt.Errorf("verify: layout sizes %d/%d for %d qubits", len(initial), len(final), n)
	}
	orig := sim.NewState(n)
	origProg, err := sim.Compile(original, n)
	if err != nil {
		return fmt.Errorf("verify: simulating original: %w", err)
	}
	mapState := sim.NewState(m)
	mapProg, err := sim.Compile(mapped, m)
	if err != nil {
		return fmt.Errorf("verify: simulating mapped: %w", err)
	}
	const eps = 1e-9
	var phase complex128
	exp := make([]complex128, 1<<uint(m))
	// relocate moves the bits of a logical basis index to the physical
	// qubits of a layout; finalAt holds it for every index under final.
	relocate := func(x int, layout perm.Mapping) int {
		y := 0
		for j := 0; j < n; j++ {
			if x>>uint(j)&1 == 1 {
				y |= 1 << uint(layout[j])
			}
		}
		return y
	}
	finalAt := make([]int, 1<<uint(n))
	for x := range finalAt {
		finalAt[x] = relocate(x, final)
	}
	for b := 0; b < 1<<uint(n); b++ {
		orig.Reset(b)
		orig.Exec(origProg)
		mapState.Reset(relocate(b, initial))
		mapState.Exec(mapProg)
		// Build the expected state: original amplitudes relocated through
		// the final layout, unused qubits |0⟩.
		clear(exp)
		for x, y := range finalAt {
			exp[y] = orig.Amplitude(x)
		}
		var ip complex128
		for y, want := range exp {
			ip += cmplx.Conj(want) * mapState.Amplitude(y)
		}
		// Both tests are negated so that a NaN amplitude, for which every
		// comparison is false, fails them instead of passing vacuously.
		if d := cmplx.Abs(ip); !(d >= 1-eps) {
			return fmt.Errorf("verify: basis %d: fidelity %.12f < 1", b, d)
		}
		if b == 0 {
			phase = ip
		} else if !(cmplx.Abs(ip-phase) <= 1e-6) {
			return fmt.Errorf("verify: basis %d: phase %.6f differs from %.6f (not a uniform global phase)", b, ip, phase)
		}
	}
	return nil
}
