package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

// refApply is the per-gate simulator the compiled form replaced, kept as
// the reference: it validates the gate, takes its matrix from gateMatrix
// as Compile does, scans every amplitude index with a bit test and applies
// the generic 2×2 product to every pair, whatever the matrix's shape.
func refApply(amps []complex128, n int, g circuit.Gate) error {
	if err := g.Validate(n); err != nil {
		return err
	}
	swapWhere := func(mask, want, flip int) {
		for i := range amps {
			if i&mask == want {
				j := i ^ flip
				amps[i], amps[j] = amps[j], amps[i]
			}
		}
	}
	switch g.Kind {
	case circuit.KindCNOT:
		cb, tb := 1<<uint(g.Qubits[0]), 1<<uint(g.Qubits[1])
		swapWhere(cb|tb, cb, tb)
	case circuit.KindSWAP:
		ab, bb := 1<<uint(g.Qubits[0]), 1<<uint(g.Qubits[1])
		swapWhere(ab|bb, ab, ab|bb)
	case circuit.KindMCT:
		var cmask int
		for _, c := range g.Qubits[:len(g.Qubits)-1] {
			cmask |= 1 << uint(c)
		}
		tb := 1 << uint(g.Qubits[len(g.Qubits)-1])
		swapWhere(cmask|tb, cmask, tb)
	default:
		m, ok := gateMatrix(g)
		if !ok {
			return fmt.Errorf("sim: unsupported gate %s", g)
		}
		bit := 1 << uint(g.Qubits[0])
		for i := range amps {
			if i&bit != 0 {
				continue
			}
			a0, a1 := amps[i], amps[i|bit]
			amps[i] = m[0][0]*a0 + m[0][1]*a1
			amps[i|bit] = m[1][0]*a0 + m[1][1]*a1
		}
	}
	return nil
}

// randomGate draws one gate of any kind on n qubits.
func randomGate(rng *rand.Rand, n int) circuit.Gate {
	qs := rng.Perm(n)
	angle := func() float64 { return (rng.Float64() - 0.5) * 7 }
	switch k := circuit.Kind(rng.Intn(int(circuit.KindMCT) + 1)); k {
	case circuit.KindU:
		return circuit.U(qs[0], angle(), angle(), angle())
	case circuit.KindRz:
		return circuit.Rz(qs[0], angle())
	case circuit.KindCNOT:
		return circuit.CNOT(qs[0], qs[1])
	case circuit.KindSWAP:
		return circuit.SWAP(qs[0], qs[1])
	case circuit.KindMCT:
		nc := rng.Intn(n)
		return circuit.MCT(qs[:nc], qs[nc])
	default:
		return circuit.Gate{Kind: k, Qubits: []int{qs[0]}}
	}
}

// TestCompiledMatchesPerGate runs random circuits over every gate kind
// through Run (one compiled program), Exec of a program reused across
// inputs, and Apply, and requires amplitudes == to the per-gate reference
// on every basis input: the shape kernels drop only products with an exact
// 0 or 1 entry and reorder no arithmetic.
func TestCompiledMatchesPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := map[circuit.Kind]bool{}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		c := circuit.New(n)
		for k := 0; k < 1+rng.Intn(40); k++ {
			g := randomGate(rng, n)
			kinds[g.Kind] = true
			c.MustAppend(g)
		}
		prog, err := Compile(c, n)
		if err != nil {
			t.Fatal(err)
		}
		reused := NewState(n)
		for b := 0; b < 1<<uint(n); b++ {
			ref := NewBasisState(n, b)
			for _, g := range c.Gates() {
				if err := refApply(ref.amps, n, g); err != nil {
					t.Fatal(err)
				}
			}
			run := NewBasisState(n, b)
			if err := run.Run(c); err != nil {
				t.Fatal(err)
			}
			reused.Reset(b)
			reused.Exec(prog)
			apply := NewBasisState(n, b)
			for _, g := range c.Gates() {
				if err := apply.Apply(g); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range ref.amps {
				if run.amps[i] != want || reused.amps[i] != want || apply.amps[i] != want {
					t.Fatalf("trial %d basis %d amp %d: Run %v, Exec %v, Apply %v, reference %v",
						trial, b, i, run.amps[i], reused.amps[i], apply.amps[i], want)
				}
			}
		}
	}
	for k := circuit.KindU; k <= circuit.KindMCT; k++ {
		if !kinds[k] {
			t.Errorf("no %s gate drawn", k)
		}
	}
}

// TestCompiledErrors checks that invalid gates fail compilation, Run and
// Apply with the reference's errors, and that a failed Run or Apply leaves
// the state as it was.
func TestCompiledErrors(t *testing.T) {
	const n = 3
	bad := []circuit.Gate{
		circuit.CNOT(0, 7),
		circuit.CNOT(1, 1),
		circuit.H(-1),
		circuit.MCT([]int{0, 2}, 2),
		{Kind: circuit.KindSWAP, Qubits: []int{0}},
		{Kind: circuit.KindX, Qubits: []int{0, 1}},
		{Kind: circuit.Kind(99), Qubits: []int{0}},
		{Kind: circuit.KindMCT},
	}
	for _, g := range bad {
		want := refApply(make([]complex128, 1<<n), n, g)
		if want == nil {
			t.Fatalf("reference accepts %v", g)
		}
		s := NewBasisState(n, 5)
		if err := s.Apply(g); err == nil || err.Error() != want.Error() {
			t.Errorf("Apply(%v) = %v, want %v", g, err, want)
		}
		if s.Amplitude(5) != 1 {
			t.Errorf("failed Apply(%v) changed the state", g)
		}
		// Append validates, so the invalid gate is written over a valid one
		// in the circuit's backing slice.
		c := circuit.New(n).AddH(0).AddH(1)
		c.Gates()[1] = g
		if _, err := Compile(c, n); err == nil || err.Error() != want.Error() {
			t.Errorf("Compile with %v = %v, want %v", g, err, want)
		}
		if err := s.Run(c); err == nil || err.Error() != want.Error() {
			t.Errorf("Run with %v = %v, want %v", g, err, want)
		}
		if s.Amplitude(5) != 1 {
			t.Errorf("failed Run with %v changed the state", g)
		}
	}
	if _, err := Compile(circuit.New(5).AddH(4), 2); err == nil ||
		err.Error() != "sim: circuit needs 5 qubits, state has 2" {
		t.Errorf("oversized circuit: %v", err)
	}
}

// TestNamedGateMatrices checks every single-qubit matrix Compile uses,
// the exact table's included, against uMatrix of the gate's U form, and
// that Compile gives each gate the kernel its matrix's shape calls for.
func TestNamedGateMatrices(t *testing.T) {
	cases := []struct {
		g    circuit.Gate
		want kernel
	}{
		{circuit.H(0), kReal},
		{circuit.X(0), kSwap},
		{circuit.Y(0), kGeneral},
		{circuit.Z(0), kPhase},
		{circuit.S(0), kPhase},
		{circuit.Sdg(0), kPhase},
		{circuit.T(0), kPhase},
		{circuit.Tdg(0), kPhase},
		{circuit.Rz(0, 0.3), kPhase},
		{circuit.U(0, 0, 0.4, -1.2), kPhase},
		{circuit.U(0, 0.5, 0, 0), kGeneral}, // real, but not of H's shape
		{circuit.U(0, 0.5, 0.1, 0.2), kGeneral},
		{circuit.U(0, math.Pi, 0, math.Pi), kGeneral}, // X as a U gate keeps uMatrix's residue
	}
	for _, tc := range cases {
		m, ok := gateMatrix(tc.g)
		if !ok {
			t.Fatalf("no matrix for %v", tc.g)
		}
		u, _ := tc.g.AsU()
		ref := uMatrix(u.Theta, u.Phi, u.Lambda)
		for r := range m {
			for c := range m[r] {
				if d := cmplx.Abs(m[r][c] - ref[r][c]); d > 1e-15 {
					t.Errorf("%v: entry (%d,%d) = %v, uMatrix %v (off by %g)", tc.g, r, c, m[r][c], ref[r][c], d)
				}
			}
		}
		o, err := compileGate(tc.g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if o.kernel != tc.want {
			t.Errorf("%v compiles to kernel %d, want %d", tc.g, o.kernel, tc.want)
		}
	}
}
