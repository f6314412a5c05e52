// Package sim provides two circuit simulators used for verification:
// a full state-vector simulator over the library's gate set (exact
// semantics for up to ~12 qubits), and a GF(2) linear-reversible simulator
// for CNOT/SWAP circuits that scales to any size the mapper handles.
//
// The mapped circuits produced by this library are verified against the
// originals through these simulators (internal/verify), so the paper's
// minimality results are established over provably equivalent circuits.
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

// Program is a circuit compiled for an n-qubit state: every gate validated
// and every single-qubit matrix computed once, so running it on many input
// states repeats neither. Apply and Run compile too, so all simulation
// goes through the same amplitude loops.
type Program struct {
	n   int
	ops []op
}

// op is one compiled gate. It acts on the amplitude pairs (i, i^flip) with
// i = set|sub for every subset sub of the bits in free, and either applies
// the 2×2 matrix u to each pair (a single-qubit gate; unitary set) or
// exchanges the pair's amplitudes (CNOT, SWAP, MCT). The pairs are
// enumerated directly, so the loops test no index bits.
type op struct {
	set, flip, free int
	unitary         bool
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
	u, ok := g.AsU()
	if !ok {
		return op{}, fmt.Errorf("sim: unsupported gate %s", g)
	}
	q := bit(u.Qubits[0])
	return op{flip: q, free: all &^ q, unitary: true, u: uMatrix(u.Theta, u.Phi, u.Lambda)}, nil
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

// exec applies one compiled gate. sub steps through the subsets of o.free
// in increasing order ((sub − free) & free is the next one) and ends with
// free itself.
func (s *State) exec(o *op) {
	a, set, flip, free := s.amps, o.set, o.flip, o.free
	if o.unitary {
		m00, m01, m10, m11 := o.u[0][0], o.u[0][1], o.u[1][0], o.u[1][1]
		for sub := 0; ; sub = (sub - free) & free {
			i := set | sub
			j := i ^ flip
			a0, a1 := a[i], a[j]
			a[i] = m00*a0 + m01*a1
			a[j] = m10*a0 + m11*a1
			if sub == free {
				return
			}
		}
	}
	for sub := 0; ; sub = (sub - free) & free {
		i := set | sub
		j := i ^ flip
		a[i], a[j] = a[j], a[i]
		if sub == free {
			return
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
