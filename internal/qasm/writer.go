package qasm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Write renders the circuit as an OpenQASM 2.0 program over a single
// register q. MCT gates with more than two controls are rejected: they must
// be decomposed (internal/revlib) before export.
func Write(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	b.Grow(64 + len(c.Name()) + 16*c.Len())
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	if name := c.Name(); name != "" {
		b.WriteString("// circuit: ")
		b.WriteString(name)
		b.WriteByte('\n')
	}
	b.WriteString("qreg q[")
	b.WriteString(strconv.Itoa(c.NumQubits()))
	b.WriteString("];\n")

	for i, g := range c.Gates() {
		switch g.Kind {
		case circuit.KindU:
			b.WriteString("u3(")
			writeAngle(&b, g.Theta)
			b.WriteByte(',')
			writeAngle(&b, g.Phi)
			b.WriteByte(',')
			writeAngle(&b, g.Lambda)
			b.WriteString(") ")
			writeOperands(&b, g.Qubits[:1])
		case circuit.KindRz:
			b.WriteString("rz(")
			writeAngle(&b, g.Lambda)
			b.WriteString(") ")
			writeOperands(&b, g.Qubits[:1])
		case circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ,
			circuit.KindS, circuit.KindSdg, circuit.KindT, circuit.KindTdg:
			b.WriteString(g.Kind.String())
			b.WriteByte(' ')
			writeOperands(&b, g.Qubits[:1])
		case circuit.KindCNOT:
			b.WriteString("cx ")
			writeOperands(&b, g.Qubits[:2])
		case circuit.KindSWAP:
			b.WriteString("swap ")
			writeOperands(&b, g.Qubits[:2])
		case circuit.KindMCT:
			switch len(g.Qubits) {
			case 1:
				b.WriteString("x ")
			case 2:
				b.WriteString("cx ")
			case 3:
				b.WriteString("ccx ")
			default:
				return "", fmt.Errorf("qasm: gate %d: MCT with %d controls has no QASM form; decompose first",
					i, len(g.Qubits)-1)
			}
			writeOperands(&b, g.Qubits)
		default:
			return "", fmt.Errorf("qasm: gate %d: unsupported kind %s", i, g.Kind)
		}
	}
	return b.String(), nil
}

// writeOperands writes "q[a],q[b];\n" for the given qubits.
func writeOperands(b *strings.Builder, qs []int) {
	for k, q := range qs {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString("q[")
		b.WriteString(strconv.Itoa(q))
		b.WriteByte(']')
	}
	b.WriteString(";\n")
}

// writeAngle writes a float with the shortest representation that
// round-trips.
func writeAngle(b *strings.Builder, v float64) {
	var buf [32]byte
	b.Write(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
}
