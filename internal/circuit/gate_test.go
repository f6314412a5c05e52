package circuit

import (
	"math"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindU:    "u",
		KindH:    "h",
		KindX:    "x",
		KindCNOT: "cx",
		KindSWAP: "swap",
		KindMCT:  "mct",
		KindTdg:  "tdg",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("invalid kind string = %q, want to mention 99", got)
	}
}

func TestKindValid(t *testing.T) {
	if Kind(-1).Valid() {
		t.Error("Kind(-1) should be invalid")
	}
	if Kind(numKinds).Valid() {
		t.Error("Kind(numKinds) should be invalid")
	}
	if !KindCNOT.Valid() {
		t.Error("KindCNOT should be valid")
	}
}

func TestIsSingleQubit(t *testing.T) {
	single := []Kind{KindU, KindH, KindX, KindY, KindZ, KindS, KindSdg, KindT, KindTdg, KindRz}
	for _, k := range single {
		if !k.IsSingleQubit() {
			t.Errorf("%s should be single-qubit", k)
		}
	}
	for _, k := range []Kind{KindCNOT, KindSWAP, KindMCT} {
		if k.IsSingleQubit() {
			t.Errorf("%s should not be single-qubit", k)
		}
	}
}

func TestGateConstructors(t *testing.T) {
	g := CNOT(2, 5)
	if g.Control() != 2 || g.Target() != 5 {
		t.Errorf("CNOT(2,5): control=%d target=%d", g.Control(), g.Target())
	}
	if got := H(3).Target(); got != 3 {
		t.Errorf("H(3).Target() = %d", got)
	}
	m := MCT([]int{0, 1, 2}, 4)
	if m.Target() != 4 {
		t.Errorf("MCT target = %d, want 4", m.Target())
	}
	if ctrls := m.Controls(); len(ctrls) != 3 || ctrls[0] != 0 || ctrls[2] != 2 {
		t.Errorf("MCT controls = %v", ctrls)
	}
	u := U(1, 0.1, 0.2, 0.3)
	if u.Theta != 0.1 || u.Phi != 0.2 || u.Lambda != 0.3 {
		t.Errorf("U params = %g,%g,%g", u.Theta, u.Phi, u.Lambda)
	}
	r := Rz(0, 1.5)
	if r.Lambda != 1.5 {
		t.Errorf("Rz lambda = %g", r.Lambda)
	}
}

func TestGatePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Control on H", func() { H(0).Control() })
	mustPanic("Target on SWAP", func() { SWAP(0, 1).Target() })
	mustPanic("Controls on H", func() { H(0).Controls() })
}

// TestGateValidate pins Validate's exact error for each failure ("" for a
// valid gate), including which qubit is named when several are bad: the
// first one in order that is out of range or repeats an earlier qubit.
func TestGateValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Gate
		n    int
		want string
	}{
		{"valid cnot", CNOT(0, 1), 2, ""},
		{"out of range", CNOT(0, 5), 2, "circuit: qubit 5 out of range [0,2)"},
		{"negative qubit", H(-1), 2, "circuit: qubit -1 out of range [0,2)"},
		{"duplicate qubits", Gate{Kind: KindCNOT, Qubits: []int{1, 1}}, 3, "circuit: duplicate qubit 1 in cx gate"},
		{"wrong arity 1q", Gate{Kind: KindH, Qubits: []int{0, 1}}, 3, "circuit: h gate needs 1 qubit, has 2"},
		{"wrong arity cnot", Gate{Kind: KindCNOT, Qubits: []int{0}}, 3, "circuit: cx gate needs 2 qubits, has 1"},
		{"empty mct", Gate{Kind: KindMCT}, 3, "circuit: mct gate needs at least a target"},
		{"mct no controls ok", MCT(nil, 0), 1, ""},
		{"invalid kind", Gate{Kind: Kind(42), Qubits: []int{0}}, 1, "circuit: invalid gate kind 42"},
		{"valid swap", SWAP(0, 2), 3, ""},
		{"valid mct", MCT([]int{3, 1, 0}, 2), 4, ""},
		{"negative kind", Gate{Kind: Kind(-1)}, 1, "circuit: invalid gate kind -1"},
		{"rz without qubit", Gate{Kind: KindRz}, 3, "circuit: rz gate needs 1 qubit, has 0"},
		{"wrong arity swap", Gate{Kind: KindSWAP, Qubits: []int{0, 1, 2}}, 3, "circuit: swap gate needs 2 qubits, has 3"},
		{"duplicate swap", SWAP(2, 2), 3, "circuit: duplicate qubit 2 in swap gate"},
		// The first bad qubit decides: a repeat before a range error, and
		// a range error before a later repeat.
		{"repeat before range", MCT([]int{0, 1, 0}, 9), 3, "circuit: duplicate qubit 0 in mct gate"},
		{"range before repeat", MCT([]int{0, 7, 0}, 0), 3, "circuit: qubit 7 out of range [0,3)"},
		{"later repeat", MCT([]int{2, 1, 0, 1}, 2), 3, "circuit: duplicate qubit 1 in mct gate"},
		{"range on first copy", MCT([]int{4, 4}, 1), 3, "circuit: qubit 4 out of range [0,3)"},
		// Angles must be finite; the structural checks come first.
		{"infinite theta", U(0, math.Inf(1), 0, 0), 1, "circuit: non-finite angle +Inf in u gate"},
		{"nan phi", U(0, 0, math.NaN(), 0), 1, "circuit: non-finite angle NaN in u gate"},
		{"negative infinite lambda", U(0, 0, 0, math.Inf(-1)), 1, "circuit: non-finite angle -Inf in u gate"},
		{"range before angle", U(3, math.NaN(), 0, 0), 1, "circuit: qubit 3 out of range [0,1)"},
		{"large finite angles", U(0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64), 1, ""},
	}
	for _, tc := range cases {
		got := ""
		if err := tc.g.Validate(tc.n); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: Validate(%d) = %q, want %q", tc.name, tc.n, got, tc.want)
		}
	}
}

// TestGateValidateAllocs checks that validating a gate allocates nothing:
// it runs on every Append of QASM parsing and materialization.
func TestGateValidateAllocs(t *testing.T) {
	g := MCT([]int{4, 0, 2, 5, 11, 7, 9, 3, 6}, 1)
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Validate(12) }); allocs != 0 {
		t.Errorf("Validate allocates %.0f times per call", allocs)
	}
}

func TestGateEqualAndCopy(t *testing.T) {
	g := U(1, 0.5, 0.25, 0.125)
	if !g.Equal(g.Copy()) {
		t.Error("copy should equal original")
	}
	c := g.Copy()
	c.Qubits[0] = 2
	if g.Qubits[0] != 1 {
		t.Error("Copy must not share qubit storage")
	}
	if g.Equal(U(1, 0.5, 0.25, 0.126)) {
		t.Error("different lambda should not be equal")
	}
	if g.Equal(H(1)) {
		t.Error("different kinds should not be equal")
	}
	if CNOT(0, 1).Equal(CNOT(1, 0)) {
		t.Error("reversed CNOT should not be equal")
	}
}

func TestGateString(t *testing.T) {
	cases := []struct {
		g    Gate
		want string
	}{
		{CNOT(0, 1), "cx q0,q1"},
		{H(2), "h q2"},
		{Rz(0, 0.5), "rz(0.5) q0"},
		{U(3, 1, 2, 3), "u(1,2,3) q3"},
	}
	for _, tc := range cases {
		if got := tc.g.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestAsU(t *testing.T) {
	// Every named single-qubit gate must convert to a U gate; 2-qubit
	// gates must not.
	for _, g := range []Gate{H(0), X(0), Y(0), Z(0), S(0), Sdg(0), T(0), Tdg(0), Rz(0, 0.7), U(0, 1, 2, 3)} {
		u, ok := g.AsU()
		if !ok {
			t.Errorf("%s: AsU failed", g)
			continue
		}
		if u.Kind != KindU || u.Qubits[0] != 0 {
			t.Errorf("%s: AsU gave %v", g, u)
		}
	}
	// Spot-check parameters for H.
	u, _ := H(0).AsU()
	if math.Abs(u.Theta-math.Pi/2) > 1e-15 || math.Abs(u.Lambda-math.Pi) > 1e-15 {
		t.Errorf("H as U: theta=%g lambda=%g", u.Theta, u.Lambda)
	}
	if _, ok := CNOT(0, 1).AsU(); ok {
		t.Error("CNOT.AsU should fail")
	}
	if _, ok := SWAP(0, 1).AsU(); ok {
		t.Error("SWAP.AsU should fail")
	}
}

func TestGateArity(t *testing.T) {
	if H(0).Arity() != 1 || CNOT(0, 1).Arity() != 2 || MCT([]int{0, 1}, 2).Arity() != 3 {
		t.Error("unexpected arity")
	}
}
