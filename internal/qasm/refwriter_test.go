package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// refWrite is the fmt-based writer that Write replaced, kept as the
// reference its output must equal byte for byte.
func refWrite(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	if name := c.Name(); name != "" {
		fmt.Fprintf(&b, "// circuit: %s\n", name)
	}
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits())

	for i, g := range c.Gates() {
		switch g.Kind {
		case circuit.KindU:
			fmt.Fprintf(&b, "u3(%s,%s,%s) q[%d];\n",
				refAngle(g.Theta), refAngle(g.Phi), refAngle(g.Lambda), g.Qubits[0])
		case circuit.KindRz:
			fmt.Fprintf(&b, "rz(%s) q[%d];\n", refAngle(g.Lambda), g.Qubits[0])
		case circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ,
			circuit.KindS, circuit.KindSdg, circuit.KindT, circuit.KindTdg:
			fmt.Fprintf(&b, "%s q[%d];\n", g.Kind, g.Qubits[0])
		case circuit.KindCNOT:
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", g.Qubits[0], g.Qubits[1])
		case circuit.KindSWAP:
			fmt.Fprintf(&b, "swap q[%d],q[%d];\n", g.Qubits[0], g.Qubits[1])
		case circuit.KindMCT:
			switch len(g.Qubits) {
			case 1:
				fmt.Fprintf(&b, "x q[%d];\n", g.Qubits[0])
			case 2:
				fmt.Fprintf(&b, "cx q[%d],q[%d];\n", g.Qubits[0], g.Qubits[1])
			case 3:
				fmt.Fprintf(&b, "ccx q[%d],q[%d],q[%d];\n", g.Qubits[0], g.Qubits[1], g.Qubits[2])
			default:
				return "", fmt.Errorf("qasm: gate %d: MCT with %d controls has no QASM form; decompose first",
					i, len(g.Qubits)-1)
			}
		default:
			return "", fmt.Errorf("qasm: gate %d: unsupported kind %s", i, g.Kind)
		}
	}
	return b.String(), nil
}

// refAngle renders a float with the shortest representation that round-trips.
func refAngle(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TestWriteMatchesReference writes circuits with every gate kind, the MCT
// forms, a name, wide registers and awkward angles, and requires Write's
// bytes and errors to equal the reference writer's. The angles are the
// extreme finite ones: a circuit cannot hold a NaN or infinite angle.
func TestWriteMatchesReference(t *testing.T) {
	named := circuit.New(120)
	named.SetName("alu-v0_27 / ünïcode")
	for _, g := range []circuit.Gate{
		circuit.U(0, math.Pi/2, -1e-300, math.MaxFloat64), circuit.U(119, math.SmallestNonzeroFloat64, -math.MaxFloat64, -0.0),
		circuit.Rz(3, 1e21), circuit.Rz(4, 123456789.125),
		circuit.H(5), circuit.X(6), circuit.Y(7), circuit.Z(8), circuit.S(9),
		circuit.Sdg(10), circuit.T(11), circuit.Tdg(100), circuit.CNOT(99, 100),
		circuit.SWAP(0, 119), circuit.MCT(nil, 1), circuit.MCT([]int{2}, 3), circuit.MCT([]int{4, 5}, 6),
	} {
		named.MustAppend(g)
	}
	wide := circuit.New(4).AddMCT([]int{0, 1, 2}, 3)
	for _, c := range []*circuit.Circuit{named, circuit.New(1), wide} {
		got, gerr := Write(c)
		want, werr := refWrite(c)
		if got != want || (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Errorf("Write = %q, %v\nreference %q, %v", got, gerr, want, werr)
		}
	}
}
