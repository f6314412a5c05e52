package qasm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func TestParseBasicProgram(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
t q[2];
tdg q[1];
ccx q[0],q[1],q[2];
measure q[0] -> c[0];
barrier q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 3 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
	if c.Len() != 5 {
		t.Fatalf("gates = %d, want 5 (measure/barrier ignored)", c.Len())
	}
	if g := c.Gate(1); g.Kind != circuit.KindCNOT || g.Control() != 0 || g.Target() != 1 {
		t.Errorf("gate 1 = %v", g)
	}
	if g := c.Gate(4); g.Kind != circuit.KindMCT || len(g.Qubits) != 3 {
		t.Errorf("gate 4 = %v", g)
	}
}

func TestParseAngleExpressions(t *testing.T) {
	src := `qreg q[1];
u3(pi/2, 0, pi) q[0];
u1(-pi/4) q[0];
u2(0, pi) q[0];
rz(3*pi/2) q[0];
u3(1.5e-3, -(pi+1)/2, 2*0.25) q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		idx  int
		f    func(circuit.Gate) float64
		want float64
	}{
		{0, func(g circuit.Gate) float64 { return g.Theta }, math.Pi / 2},
		{0, func(g circuit.Gate) float64 { return g.Lambda }, math.Pi},
		{1, func(g circuit.Gate) float64 { return g.Lambda }, -math.Pi / 4},
		{2, func(g circuit.Gate) float64 { return g.Theta }, math.Pi / 2},
		{3, func(g circuit.Gate) float64 { return g.Lambda }, 3 * math.Pi / 2},
		{4, func(g circuit.Gate) float64 { return g.Theta }, 1.5e-3},
		{4, func(g circuit.Gate) float64 { return g.Phi }, -(math.Pi + 1) / 2},
		{4, func(g circuit.Gate) float64 { return g.Lambda }, 0.5},
	}
	for _, tc := range checks {
		if got := tc.f(c.Gate(tc.idx)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("gate %d: angle = %g, want %g", tc.idx, got, tc.want)
		}
	}
}

func TestParseMultipleRegisters(t *testing.T) {
	src := `qreg a[2]; qreg b[2]; cx a[1],b[0];`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 4 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
	if g := c.Gate(0); g.Control() != 1 || g.Target() != 2 {
		t.Errorf("flattening wrong: %v", g)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no registers":       `h q[0];`,
		"unknown register":   `qreg q[2]; h r[0];`,
		"index out of range": `qreg q[2]; h q[5];`,
		"unknown gate":       `qreg q[2]; foo q[0];`,
		"bad arity":          `qreg q[2]; cx q[0];`,
		"unterminated str":   `include "qelib1.inc`,
		"division by zero":   `qreg q[1]; u1(1/0) q[0];`,
		"missing semicolon":  `qreg q[2]`,
		"bad char":           `qreg q[2]; h q[0]; @`,
		"angle overflow":     `qreg q[1]; u3(1e300*1e300,0,0) q[0];`,
		"NaN angle":          `qreg q[1]; u1(1e300*1e300-1e300*1e300) q[0];`,
		"overflow in a body": `gate g(a) x { u1(a*a) x; } qreg q[1]; g(1e200) q[0];`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteBasic(t *testing.T) {
	c := circuit.New(2).SetName("demo").AddH(0).AddCNOT(0, 1).AddT(1)
	out, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[2];", "h q[0];", "cx q[0],q[1];", "t q[1];", "demo"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteRejectsBigMCT(t *testing.T) {
	c := circuit.New(5).AddMCT([]int{0, 1, 2}, 4)
	if _, err := Write(c); err == nil {
		t.Error("3-control MCT should be rejected")
	}
}

func TestRoundTripPreservesSemantics(t *testing.T) {
	// Write → Parse must reproduce an equivalent circuit (simulated).
	orig := circuit.New(3).
		AddH(0).AddU(1, 0.3, -1.2, 2.5).AddCNOT(0, 1).
		AddRz(2, math.Pi/3).AddTdg(0).AddSWAP(1, 2).
		AddMCT([]int{0, 1}, 2).AddSdg(2)
	out, err := Write(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if back.NumQubits() != 3 || back.Len() != orig.Len() {
		t.Fatalf("shape changed: %d qubits, %d gates", back.NumQubits(), back.Len())
	}
	for b := 0; b < 8; b++ {
		s1 := sim.NewBasisState(3, b)
		if err := s1.Run(orig); err != nil {
			t.Fatal(err)
		}
		s2 := sim.NewBasisState(3, b)
		if err := s2.Run(back); err != nil {
			t.Fatal(err)
		}
		if ok, _ := s1.EqualUpToPhase(s2, 1e-9); !ok {
			t.Fatalf("basis %d: round trip changed semantics", b)
		}
	}
}

// Property: random circuits round-trip through QASM with identical
// structure.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint) bool {
		state := uint64(seed)
		next := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(mod))
		}
		const n = 4
		c := circuit.New(n)
		for i := 0; i < int(count%25)+1; i++ {
			switch next(6) {
			case 0:
				c.AddH(next(n))
			case 1:
				c.AddT(next(n))
			case 2:
				c.AddU(next(n), float64(next(100))/25, float64(next(100))/25, float64(next(100))/25)
			case 3:
				a := next(n)
				c.AddCNOT(a, (a+1+next(n-1))%n)
			case 4:
				c.AddRz(next(n), float64(next(100))/10)
			case 5:
				a := next(n)
				c.AddSWAP(a, (a+1+next(n-1))%n)
			}
		}
		out, err := Write(c)
		if err != nil {
			return false
		}
		back, err := Parse(out)
		if err != nil || back.Len() != c.Len() || back.NumQubits() != n {
			return false
		}
		// Structural identity gate by gate (named 1q gates stay named,
		// U stays U with identical parameters).
		for i, g := range c.Gates() {
			bg := back.Gate(i)
			if g.Kind != bg.Kind && !(g.Kind == circuit.KindU && bg.Kind == circuit.KindU) {
				return false
			}
			if len(g.Qubits) != len(bg.Qubits) {
				return false
			}
			for k := range g.Qubits {
				if g.Qubits[k] != bg.Qubits[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteAllNamedGates(t *testing.T) {
	c := circuit.New(2).
		AddH(0).AddX(0).AddT(0).AddTdg(0).AddS(0).AddSdg(0)
	c.MustAppend(circuit.Y(1), circuit.Z(1))
	out, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"h q[0]", "x q[0]", "t q[0]", "tdg q[0]", "s q[0]", "sdg q[0]", "y q[1]", "z q[1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Errorf("round trip %d gates, want %d", back.Len(), c.Len())
	}
}

func TestWriteMCTForms(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.MCT(nil, 0))         // → x
	c.MustAppend(circuit.MCT([]int{0}, 1))    // → cx
	c.MustAppend(circuit.MCT([]int{0, 1}, 2)) // → ccx
	out, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"x q[0]", "cx q[0],q[1]", "ccx q[0],q[1],q[2]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestParseIdGate(t *testing.T) {
	c, err := Parse("qreg q[1]; id q[0];")
	if err != nil {
		t.Fatal(err)
	}
	g := c.Gate(0)
	if g.Kind != circuit.KindU || g.Theta != 0 || g.Lambda != 0 {
		t.Errorf("id parsed as %v", g)
	}
}

func TestParseUGateAlias(t *testing.T) {
	for _, name := range []string{"u3", "u", "U"} {
		c, err := Parse("qreg q[1]; " + name + "(1,2,3) q[0];")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Gate(0).Kind != circuit.KindU {
			t.Errorf("%s not parsed as U", name)
		}
	}
}
