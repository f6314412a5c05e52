package qasm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/circuit"
)

// FuzzParse exercises the QASM parser with arbitrary inputs: it must never
// panic, and anything it accepts must re-serialize, byte for byte as the
// reference writer does, and re-parse cleanly (when the circuit is
// expressible, i.e. contains no >2-control MCTs — ccx is the largest gate
// the parser produces, so that always holds).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];",
		"qreg q[2]; u3(pi/2,0,pi) q[0]; ccx q[0],q[1],q[0];",
		"qreg a[1]; qreg b[2]; cx a[0],b[1]; measure a[0] -> c[0];",
		"qreg q[1]; u1(-(pi+1)/2*3) q[0]; barrier q[0];",
		"p cnf // not qasm at all",
		"qreg q[9999];",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		out, err := Write(c)
		if err != nil {
			t.Fatalf("accepted circuit failed to serialize: %v", err)
		}
		if ref, _ := refWrite(c); out != ref {
			t.Fatalf("Write differs from the reference writer:\n%s\nreference:\n%s", out, ref)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, out)
		}
		if back.Len() != c.Len() || back.NumQubits() != c.NumQubits() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.NumQubits(), back.Len(), c.NumQubits(), c.Len())
		}
	})
}

// FuzzLexMatchesReference runs the byte-slicing lexer and the rune-slice
// reference over the same input: token kinds, texts and lines, and the
// error text, must be identical. Parse, which lexes as it reads, must also
// return what parsing the reference's whole token slice returns: the same
// error text, or the same gates with bit-identical angles.
func FuzzLexMatchesReference(f *testing.F) {
	seeds := []string{
		"",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n",
		"qreg q[1]; u3(1.5e-3,-2E+4,.5) q[0]; // trailing comment",
		"measure a[0] -> c[0]; x-> y",
		"qreg \u00e9[2]; h \u00e9[0];",                      // non-ASCII letter (e acute)
		"qreg q[\u0663]; u1(\u0661.5) q[0];",                // Arabic-Indic digits
		"qreg q[1];\u00a0h q[0];\u2028x q[0];\u0085z q[0];", // non-ASCII spaces
		"include \"a\xffb\xc3\";",                           // invalid UTF-8 inside a string
		"qreg q[1]; \xff h q[0];",                           // invalid UTF-8 outside one
		"\xe2\x82 x",                                        // truncated sequence
		"\"unterminated\n string",
		"a\x00b",
		"1e5e6 1.2.3 e+ _a_1 ..",
		"\"multi\nline\" x\n\"y\"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := lexAll(src)
		want, werr := refLexAll(src)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("error %v, reference %v", gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d tokens, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				g, w := got[i], want[i]
				t.Fatalf("token %d = kind %d %q line %d, reference kind %d %q line %d",
					i, g.kind, g.text, g.line, w.kind, w.text, w.line)
			}
		}
		c, perr := Parse(src)
		rc, rerr := refParse(src)
		if (perr == nil) != (rerr == nil) || perr != nil && perr.Error() != rerr.Error() {
			t.Fatalf("Parse error %v, reference %v", perr, rerr)
		}
		if perr == nil && !sameCircuit(c, rc) {
			t.Fatalf("Parse = %v, reference %v", c.Gates(), rc.Gates())
		}
	})
}

// lexAll tokenizes the whole input with the lexer Parse uses.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// refParse is Parse as it was before lexing on demand: the reference
// lexer tokenizes the whole input, and a lexical error anywhere wins.
func refParse(src string) (*circuit.Circuit, error) {
	toks, err := refLexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	p.fill()
	return p.program()
}

// sameCircuit reports whether two circuits have the same qubits and gates,
// with angles equal bit for bit.
func sameCircuit(a, b *circuit.Circuit) bool {
	if a.NumQubits() != b.NumQubits() || a.Len() != b.Len() {
		return false
	}
	bits := math.Float64bits
	for i, g := range a.Gates() {
		h := b.Gates()[i]
		if g.Kind != h.Kind || !slices.Equal(g.Qubits, h.Qubits) ||
			bits(g.Theta) != bits(h.Theta) || bits(g.Phi) != bits(h.Phi) || bits(g.Lambda) != bits(h.Lambda) {
			return false
		}
	}
	return true
}
