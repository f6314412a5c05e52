// Package sim is a state-vector simulator over the library's gate set
// (exact semantics for up to MaxQubits qubits). verify.Equivalent uses it
// to check circuits the peephole optimizer rewrote, and tests use it as
// the oracle of the translation checker that verifies every mapped
// circuit (internal/verify).
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
)

// MaxQubits bounds the state-vector simulator's size (2^12 amplitudes).
const MaxQubits = 12

// State is a quantum state over n qubits. Qubit k corresponds to bit k of
// the amplitude index (qubit 0 is the least significant bit).
type State struct {
	n    int
	amps []complex128
}

// NewState returns the all-zeros computational basis state |0…0⟩.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("sim: %d qubits outside [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// NewBasisState returns the computational basis state |index⟩.
func NewBasisState(n, index int) *State {
	s := NewState(n)
	s.Reset(index)
	return s
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// Amplitude returns the amplitude of basis state |index⟩.
func (s *State) Amplitude(index int) complex128 { return s.amps[index] }

// Copy returns a deep copy of the state.
func (s *State) Copy() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	copy(c.amps, s.amps)
	return c
}

// uMatrix returns the 2×2 matrix of U(θ,φ,λ) = Rz(φ)Ry(θ)Rz(λ) in the IBM
// convention: [[cos(θ/2), −e^{iλ}·sin(θ/2)], [e^{iφ}·sin(θ/2),
// e^{i(φ+λ)}·cos(θ/2)]].
func uMatrix(theta, phi, lambda float64) [2][2]complex128 {
	c, sn := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(c, 0), -cmplx.Exp(complex(0, lambda)) * complex(sn, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(sn, 0), cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0)},
	}
}

// Exact matrices of the named gates whose U(θ,φ,λ) form uMatrix does not
// evaluate exactly: cos(π/2) and e^{iπ} carry rounding residue, so X would
// get 6.1e-17 on its diagonal and H and Y imaginary parts of about 1e-16.
// The exact entries are what lets Compile give X the swap kernel and H
// the real one. The other named kinds keep uMatrix of their U form,
// computed once here.
var (
	matX   = [2][2]complex128{{0, 1}, {1, 0}}
	matY   = [2][2]complex128{{0, -1i}, {1i, 0}}
	matH   = [2][2]complex128{{math.Sqrt2 / 2, math.Sqrt2 / 2}, {math.Sqrt2 / 2, -math.Sqrt2 / 2}}
	matZ   = namedU(circuit.KindZ)
	matS   = namedU(circuit.KindS)
	matSdg = namedU(circuit.KindSdg)
	matT   = namedU(circuit.KindT)
	matTdg = namedU(circuit.KindTdg)
)

// namedU returns uMatrix of the U form of a parameterless kind.
func namedU(k circuit.Kind) [2][2]complex128 {
	u, _ := circuit.Gate{Kind: k, Qubits: []int{0}}.AsU()
	return uMatrix(u.Theta, u.Phi, u.Lambda)
}

// gateMatrix returns the 2×2 matrix of a single-qubit gate: the exact
// matrix of X, Y and H, uMatrix of the U form of every other kind. ok is
// false for gates that are not single-qubit.
func gateMatrix(g circuit.Gate) (m [2][2]complex128, ok bool) {
	switch g.Kind {
	case circuit.KindX:
		return matX, true
	case circuit.KindY:
		return matY, true
	case circuit.KindH:
		return matH, true
	case circuit.KindZ:
		return matZ, true
	case circuit.KindS:
		return matS, true
	case circuit.KindSdg:
		return matSdg, true
	case circuit.KindT:
		return matT, true
	case circuit.KindTdg:
		return matTdg, true
	}
	u, ok := g.AsU()
	if !ok {
		return m, false
	}
	return uMatrix(u.Theta, u.Phi, u.Lambda), true
}

// Program is a circuit compiled for an n-qubit state: every gate validated
// and every single-qubit matrix computed once, so running it on many input
// states repeats neither. Apply and Run compile too, so all simulation
// goes through the same amplitude loops.
type Program struct {
	n   int
	ops []op
}

// kernel names the amplitude loop of a compiled gate. Compile picks the
// kernel of a single-qubit gate from the exact shape of its matrix. A
// specialized kernel computes what the generic product
// (a0, a1) ← (m00·a0 + m01·a1, m10·a0 + m11·a1) computes for that matrix:
// it leaves out only products with an exact 0 or 1 entry and never
// reassociates a sum, so every amplitude is == to the generic one (a
// dropped x·0 term can only flip the sign of a zero).
type kernel uint8

const (
	// kSwap exchanges the pair's amplitudes: CNOT, SWAP, MCT, and any
	// single-qubit matrix [[0,1],[1,0]] (X).
	kSwap kernel = iota
	// kPhase multiplies a1 by m11: diagonal matrices with m00 = 1 (T, T†,
	// S, S†, Z, Rz and U with θ = 0, which uMatrix makes exactly so).
	kPhase
	// kReal applies a real matrix [[r, t], [r, −t]] (H) to the real and
	// imaginary parts of the pair separately. Its rows share the products
	// r·a0 and t·a1: m10·a0 is the same product as m00·a0, and m11·a1 is
	// the negation of m01·a1, exactly.
	kReal
	// kGeneral applies any other 2×2 matrix.
	kGeneral
)

// op is one compiled gate. It acts on the amplitude pairs (i, i^flip) with
// i = set|sub for every subset sub of the bits in free, applying its
// kernel to each pair. A single-qubit gate has set 0 and one bit in flip;
// the multi-qubit gates (CNOT, SWAP, MCT) all use kSwap. The pairs are
// enumerated directly, so the loops test no index bits.
type op struct {
	set, flip, free int
	kernel          kernel
	u               [2][2]complex128
}

// Compile validates every gate of c against an n-qubit state and compiles
// it. The error is the first invalid gate's, as Run would report it.
func Compile(c *circuit.Circuit, n int) (*Program, error) {
	if c.NumQubits() > n {
		return nil, fmt.Errorf("sim: circuit needs %d qubits, state has %d", c.NumQubits(), n)
	}
	p := &Program{n: n, ops: make([]op, len(c.Gates()))}
	for k, g := range c.Gates() {
		var err error
		if p.ops[k], err = compileGate(g, n); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// compileGate validates g against an n-qubit state and compiles it.
func compileGate(g circuit.Gate, n int) (op, error) {
	if err := g.Validate(n); err != nil {
		return op{}, err
	}
	all := 1<<uint(n) - 1
	bit := func(q int) int { return 1 << uint(q) }
	switch g.Kind {
	case circuit.KindCNOT:
		c, t := bit(g.Qubits[0]), bit(g.Qubits[1])
		return op{set: c, flip: t, free: all &^ (c | t)}, nil
	case circuit.KindSWAP:
		a, b := bit(g.Qubits[0]), bit(g.Qubits[1])
		return op{set: a, flip: a | b, free: all &^ (a | b)}, nil
	case circuit.KindMCT:
		var cmask int
		for _, c := range g.Qubits[:len(g.Qubits)-1] {
			cmask |= bit(c)
		}
		t := bit(g.Qubits[len(g.Qubits)-1])
		return op{set: cmask, flip: t, free: all &^ (cmask | t)}, nil
	}
	u, ok := gateMatrix(g)
	if !ok {
		return op{}, fmt.Errorf("sim: unsupported gate %s", g)
	}
	q := bit(g.Qubits[0])
	return op{flip: q, free: all &^ q, kernel: shape(u), u: u}, nil
}

// shape picks the kernel of a single-qubit matrix from its exact entries.
func shape(u [2][2]complex128) kernel {
	switch {
	case u[0][0] == 1 && u[0][1] == 0 && u[1][0] == 0:
		return kPhase
	case u[0][0] == 0 && u[0][1] == 1 && u[1][0] == 1 && u[1][1] == 0:
		return kSwap
	case imag(u[0][0]) == 0 && imag(u[0][1]) == 0 && u[1][0] == u[0][0] && u[1][1] == -u[0][1]:
		return kReal
	}
	return kGeneral
}

// Exec applies a compiled program to the state. It panics if the program
// was compiled for a different number of qubits.
func (s *State) Exec(p *Program) {
	if p.n != s.n {
		panic(fmt.Sprintf("sim: program for %d qubits run on a %d-qubit state", p.n, s.n))
	}
	for k := range p.ops {
		s.exec(&p.ops[k])
	}
}

// exec applies one compiled gate. A multi-qubit gate's pairs are found by
// stepping sub through the subsets of o.free in increasing order
// ((sub − free) & free is the next one, ending with free itself). A
// single-qubit gate's pairs are (i, i+flip) for the indices i with the
// flip bit clear: the k-th of them is k with a zero bit inserted at flip.
func (s *State) exec(o *op) {
	a, set, flip, free := s.amps, o.set, o.flip, o.free
	if set != 0 || flip&(flip-1) != 0 {
		for sub := 0; ; sub = (sub - free) & free {
			i := set | sub
			j := i ^ flip
			a[i], a[j] = a[j], a[i]
			if sub == free {
				return
			}
		}
	}
	low, half := flip-1, len(a)>>1
	switch m00, m01, m10, m11 := o.u[0][0], o.u[0][1], o.u[1][0], o.u[1][1]; o.kernel {
	case kSwap:
		for k := 0; k < half; k++ {
			i := (k&^low)<<1 | k&low
			a[i], a[i+flip] = a[i+flip], a[i]
		}
	case kPhase:
		for k := 0; k < half; k++ {
			j := (k&^low)<<1 | k&low | flip
			a[j] = m11 * a[j]
		}
	case kReal:
		r, t := real(m00), real(m01)
		for k := 0; k < half; k++ {
			i := (k&^low)<<1 | k&low
			a0, a1 := a[i], a[i+flip]
			// The conversions round each product on its own, as the
			// generic product does: no platform may fuse one into the sum
			// as an FMA.
			x0, y0 := float64(r*real(a0)), float64(r*imag(a0))
			x1, y1 := float64(t*real(a1)), float64(t*imag(a1))
			a[i] = complex(x0+x1, y0+y1)
			a[i+flip] = complex(x0-x1, y0-y1)
		}
	default:
		for k := 0; k < half; k++ {
			i := (k&^low)<<1 | k&low
			a0, a1 := a[i], a[i+flip]
			a[i] = m00*a0 + m01*a1
			a[i+flip] = m10*a0 + m11*a1
		}
	}
}

// Apply applies one gate to the state. An invalid gate returns its
// validation error and leaves the state unchanged.
func (s *State) Apply(g circuit.Gate) error {
	o, err := compileGate(g, s.n)
	if err != nil {
		return err
	}
	s.exec(&o)
	return nil
}

// Run applies every gate of the circuit in order. If any gate is invalid
// it returns that gate's error before applying anything.
func (s *State) Run(c *circuit.Circuit) error {
	p, err := Compile(c, s.n)
	if err != nil {
		return err
	}
	s.Exec(p)
	return nil
}

// Reset sets the state to the computational basis state |index⟩ in place.
func (s *State) Reset(index int) {
	if index < 0 || index >= len(s.amps) {
		panic("sim: basis index out of range")
	}
	clear(s.amps)
	s.amps[index] = 1
}

// InnerProduct returns ⟨s|o⟩.
func (s *State) InnerProduct(o *State) complex128 {
	if s.n != o.n {
		panic("sim: inner product of different sizes")
	}
	var total complex128
	for i, a := range s.amps {
		total += cmplx.Conj(a) * o.amps[i]
	}
	return total
}

// Norm returns the state's 2-norm (should be 1 for valid evolutions).
func (s *State) Norm() float64 {
	total := 0.0
	for _, a := range s.amps {
		total += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(total)
}

// EqualUpToPhase reports whether two states are equal up to a global phase
// within tolerance eps (|⟨s|o⟩| ≥ 1−eps) and returns the phase factor.
func (s *State) EqualUpToPhase(o *State, eps float64) (bool, complex128) {
	ip := s.InnerProduct(o)
	return cmplx.Abs(ip) >= 1-eps, ip
}
