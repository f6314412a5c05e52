// Package circuit provides the quantum-circuit intermediate representation
// used throughout the mapper: gates, circuits, builders, statistics, and the
// structural analyses (CNOT skeleton, disjoint-qubit layering) that the
// mapping algorithms of the paper operate on.
package circuit

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind enumerates the gate types understood by the library. The IBM QX
// architectures natively support U(θ,φ,λ) and CNOT; the named single-qubit
// gates are common aliases for specific U instances, and MCT (multi-controlled
// Toffoli) is the gate type produced by reversible-logic synthesis before
// decomposition into the native set.
type Kind int

const (
	// KindU is the universal IBM single-qubit gate U(θ,φ,λ) = Rz(φ)Ry(θ)Rz(λ).
	KindU Kind = iota
	// KindH is the Hadamard gate, U(π/2, 0, π).
	KindH
	// KindX is the Pauli-X (NOT) gate, U(π, 0, π).
	KindX
	// KindY is the Pauli-Y gate.
	KindY
	// KindZ is the Pauli-Z gate, U(0, 0, π).
	KindZ
	// KindS is the phase gate S = U(0, 0, π/2).
	KindS
	// KindSdg is the inverse phase gate S† = U(0, 0, -π/2).
	KindSdg
	// KindT is the π/8 gate T = U(0, 0, π/4).
	KindT
	// KindTdg is the inverse π/8 gate T† = U(0, 0, -π/4).
	KindTdg
	// KindRz is a rotation about the z axis, U(0, 0, λ).
	KindRz
	// KindCNOT is the controlled-NOT gate. Qubits[0] is the control,
	// Qubits[1] the target.
	KindCNOT
	// KindSWAP exchanges the states of two physical qubits. It is not
	// native on IBM QX and decomposes into 3 CNOT + 4 H (cost 7).
	KindSWAP
	// KindMCT is a multi-controlled Toffoli: Qubits[:len-1] are controls,
	// Qubits[len-1] is the target. Zero controls is X, one control CNOT.
	KindMCT
	numKinds
)

var kindNames = [numKinds]string{
	KindU:    "u",
	KindH:    "h",
	KindX:    "x",
	KindY:    "y",
	KindZ:    "z",
	KindS:    "s",
	KindSdg:  "sdg",
	KindT:    "t",
	KindTdg:  "tdg",
	KindRz:   "rz",
	KindCNOT: "cx",
	KindSWAP: "swap",
	KindMCT:  "mct",
}

// String returns the lower-case OpenQASM-style mnemonic for the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Valid reports whether k is a defined gate kind.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// IsSingleQubit reports whether the kind acts on exactly one qubit.
func (k Kind) IsSingleQubit() bool {
	switch k {
	case KindU, KindH, KindX, KindY, KindZ, KindS, KindSdg, KindT, KindTdg, KindRz:
		return true
	}
	return false
}

// Gate is a single quantum operation applied to an ordered list of qubits.
//
// For KindCNOT, Qubits is [control, target]. For KindMCT, the last entry is
// the target and all preceding entries are controls. For single-qubit kinds,
// Qubits has exactly one entry. Theta, Phi and Lambda are only meaningful for
// KindU (all three) and KindRz (Lambda only).
type Gate struct {
	Kind   Kind
	Qubits []int
	Theta  float64
	Phi    float64
	Lambda float64
}

// U returns a universal single-qubit gate U(θ,φ,λ) on qubit q.
func U(q int, theta, phi, lambda float64) Gate {
	return Gate{Kind: KindU, Qubits: []int{q}, Theta: theta, Phi: phi, Lambda: lambda}
}

// H returns a Hadamard gate on qubit q.
func H(q int) Gate { return Gate{Kind: KindH, Qubits: []int{q}} }

// X returns a NOT gate on qubit q.
func X(q int) Gate { return Gate{Kind: KindX, Qubits: []int{q}} }

// Y returns a Pauli-Y gate on qubit q.
func Y(q int) Gate { return Gate{Kind: KindY, Qubits: []int{q}} }

// Z returns a Pauli-Z gate on qubit q.
func Z(q int) Gate { return Gate{Kind: KindZ, Qubits: []int{q}} }

// S returns a phase gate on qubit q.
func S(q int) Gate { return Gate{Kind: KindS, Qubits: []int{q}} }

// Sdg returns an inverse phase gate on qubit q.
func Sdg(q int) Gate { return Gate{Kind: KindSdg, Qubits: []int{q}} }

// T returns a T gate on qubit q.
func T(q int) Gate { return Gate{Kind: KindT, Qubits: []int{q}} }

// Tdg returns an inverse T gate on qubit q.
func Tdg(q int) Gate { return Gate{Kind: KindTdg, Qubits: []int{q}} }

// Rz returns a z-rotation by lambda on qubit q.
func Rz(q int, lambda float64) Gate {
	return Gate{Kind: KindRz, Qubits: []int{q}, Lambda: lambda}
}

// CNOT returns a controlled-NOT with the given control and target qubits.
func CNOT(control, target int) Gate {
	return Gate{Kind: KindCNOT, Qubits: []int{control, target}}
}

// SWAP returns a SWAP gate exchanging qubits a and b.
func SWAP(a, b int) Gate { return Gate{Kind: KindSWAP, Qubits: []int{a, b}} }

// MCT returns a multi-controlled Toffoli gate with the given controls and
// target. controls may be empty (plain X) or a single qubit (CNOT-equivalent).
func MCT(controls []int, target int) Gate {
	qs := make([]int, 0, len(controls)+1)
	qs = append(qs, controls...)
	qs = append(qs, target)
	return Gate{Kind: KindMCT, Qubits: qs}
}

// Arity returns the number of qubits the gate acts on.
func (g Gate) Arity() int { return len(g.Qubits) }

// Control returns the control qubit of a CNOT gate.
// It panics if the gate is not a CNOT.
func (g Gate) Control() int {
	if g.Kind != KindCNOT {
		panic("circuit: Control on non-CNOT gate " + g.Kind.String())
	}
	return g.Qubits[0]
}

// Target returns the target qubit. For CNOT and MCT this is the last qubit;
// for single-qubit gates it is the only qubit. It panics for SWAP, which has
// no distinguished target.
func (g Gate) Target() int {
	switch {
	case g.Kind == KindSWAP:
		panic("circuit: Target on SWAP gate")
	case len(g.Qubits) == 0:
		panic("circuit: Target on empty gate")
	}
	return g.Qubits[len(g.Qubits)-1]
}

// Controls returns the control qubits of an MCT or CNOT gate (possibly empty
// for a zero-control MCT). It panics for other kinds.
func (g Gate) Controls() []int {
	switch g.Kind {
	case KindCNOT, KindMCT:
		return g.Qubits[:len(g.Qubits)-1]
	}
	panic("circuit: Controls on gate kind " + g.Kind.String())
}

// Validate checks well-formedness of the gate against a circuit with
// numQubits qubits: correct arity for the kind, all qubit indices in range
// and pairwise distinct, and finite angles (a NaN or infinite angle
// simulates to NaN amplitudes, which no equivalence check can compare, and
// QASM cannot express it).
func (g Gate) Validate(numQubits int) error {
	if !g.Kind.Valid() {
		return fmt.Errorf("circuit: invalid gate kind %d", int(g.Kind))
	}
	switch {
	case g.Kind.IsSingleQubit():
		if len(g.Qubits) != 1 {
			return fmt.Errorf("circuit: %s gate needs 1 qubit, has %d", g.Kind, len(g.Qubits))
		}
	case g.Kind == KindCNOT || g.Kind == KindSWAP:
		if len(g.Qubits) != 2 {
			return fmt.Errorf("circuit: %s gate needs 2 qubits, has %d", g.Kind, len(g.Qubits))
		}
	case g.Kind == KindMCT:
		if len(g.Qubits) < 1 {
			return fmt.Errorf("circuit: mct gate needs at least a target")
		}
	}
	// Qubit k is checked for range, then against qubits 0..k−1: gates have
	// a handful of qubits, so the scan beats a set and allocates nothing.
	for k, q := range g.Qubits {
		if q < 0 || q >= numQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d)", q, numQubits)
		}
		if slices.Contains(g.Qubits[:k], q) {
			return fmt.Errorf("circuit: duplicate qubit %d in %s gate", q, g.Kind)
		}
	}
	for _, a := range [3]float64{g.Theta, g.Phi, g.Lambda} {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("circuit: non-finite angle %g in %s gate", a, g.Kind)
		}
	}
	return nil
}

// Equal reports whether two gates are identical (same kind, qubits in the
// same order, and parameters equal to within 1e-12).
func (g Gate) Equal(o Gate) bool {
	if g.Kind != o.Kind || len(g.Qubits) != len(o.Qubits) {
		return false
	}
	for i, q := range g.Qubits {
		if o.Qubits[i] != q {
			return false
		}
	}
	const eps = 1e-12
	return math.Abs(g.Theta-o.Theta) < eps &&
		math.Abs(g.Phi-o.Phi) < eps &&
		math.Abs(g.Lambda-o.Lambda) < eps
}

// Copy returns a deep copy of the gate.
func (g Gate) Copy() Gate {
	c := g
	c.Qubits = append([]int(nil), g.Qubits...)
	return c
}

// String renders the gate in a compact QASM-like form, e.g. "cx q0,q1".
func (g Gate) String() string {
	var b strings.Builder
	switch g.Kind {
	case KindU:
		fmt.Fprintf(&b, "u(%g,%g,%g)", g.Theta, g.Phi, g.Lambda)
	case KindRz:
		fmt.Fprintf(&b, "rz(%g)", g.Lambda)
	default:
		b.WriteString(g.Kind.String())
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q%d", q)
	}
	return b.String()
}

// uParams maps each named single-qubit kind to its U(θ,φ,λ) parameters.
// KindU and KindRz are handled separately because they carry parameters.
func uParams(k Kind) (theta, phi, lambda float64, ok bool) {
	switch k {
	case KindH:
		return math.Pi / 2, 0, math.Pi, true
	case KindX:
		return math.Pi, 0, math.Pi, true
	case KindY:
		return math.Pi, math.Pi / 2, math.Pi / 2, true
	case KindZ:
		return 0, 0, math.Pi, true
	case KindS:
		return 0, 0, math.Pi / 2, true
	case KindSdg:
		return 0, 0, -math.Pi / 2, true
	case KindT:
		return 0, 0, math.Pi / 4, true
	case KindTdg:
		return 0, 0, -math.Pi / 4, true
	}
	return 0, 0, 0, false
}

// AsU rewrites any single-qubit gate as an equivalent KindU gate. Gates that
// are not single-qubit are returned unchanged with ok = false.
func (g Gate) AsU() (Gate, bool) {
	switch g.Kind {
	case KindU:
		return g, true
	case KindRz:
		return U(g.Qubits[0], 0, 0, g.Lambda), true
	}
	if th, ph, la, ok := uParams(g.Kind); ok {
		return U(g.Qubits[0], th, ph, la), true
	}
	return g, false
}
