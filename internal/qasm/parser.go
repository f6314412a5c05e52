package qasm

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/circuit"
)

// Parse reads an OpenQASM 2.0 program and returns the corresponding
// circuit. Multiple quantum registers are flattened into one qubit index
// space in declaration order; classical registers, barriers, measures and
// resets are ignored.
//
// The source is lexed as the parser reads it, but the first lexical error
// anywhere in it takes precedence over any parse error, as if the whole
// input were tokenized first.
func Parse(src string) (*circuit.Circuit, error) {
	p := &parser{lx: newLexer(src)}
	p.fill()
	c, err := p.program()
	for p.lexErr == nil && p.tok.kind != tokEOF {
		p.fill()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return c, err
}

type qreg struct {
	name   string
	offset int
	size   int
}

// parser reads one token ahead (tok) from the lexer lx or, for a macro's
// angle expression, from the token slice toks.
type parser struct {
	lx     *lexer
	toks   []token
	tok    token
	lexErr error // the lexer's error; the parser saw tokEOF in its place
	regs   []qreg
	n      int
	macros map[string]*gateDef
	// gates collects the program's gates until the register count, hence
	// the circuit, is known. params and qubits are gateStmt's buffers.
	gates  []circuit.Gate
	params []float64
	qubits []int
}

// gateDef is a user-defined gate from a `gate` block: a parametrized macro
// over formal qubit arguments, expanded at application time.
type gateDef struct {
	name   string
	params []string // formal parameter names (angles)
	qubits []string // formal qubit names
	body   []macroGate
}

// macroGate is one statement inside a gate body: a gate name, angle
// expressions over the formal parameters, and formal qubit operands.
type macroGate struct {
	name   string
	exprs  [][]token // tokenized angle expressions, evaluated at expansion
	qubits []string
}

// fill reads the next token into tok. A slice source ends in tokEOF.
func (p *parser) fill() {
	if p.lx == nil {
		p.tok, p.toks = p.toks[0], p.toks[1:]
		return
	}
	t, err := p.lx.next()
	if err != nil {
		p.lexErr = err
		t = token{kind: tokEOF, line: p.lx.line}
	}
	p.tok = t
}

func (p *parser) peek() token { return p.tok }
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.fill()
	}
	return t
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	t := p.advance()
	if t.kind != tokSymbol || t.text != s {
		return p.errf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return t, p.errf(t, "expected identifier, got %q", t.text)
	}
	return t, nil
}

func (p *parser) program() (*circuit.Circuit, error) {
	// Optional "OPENQASM 2.0;" header.
	if t := p.peek(); t.kind == tokIdent && t.text == "OPENQASM" {
		p.advance()
		if v := p.advance(); v.kind != tokNumber {
			return nil, p.errf(v, "expected version number")
		}
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
	}
	// First pass: collect register declarations and gates.

	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errf(t, "expected statement, got %q", t.text)
		}
		switch t.text {
		case "include":
			p.advance()
			if s := p.advance(); s.kind != tokString {
				return nil, p.errf(s, "expected include path string")
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case "qreg":
			p.advance()
			name, size, err := p.regDecl()
			if err != nil {
				return nil, err
			}
			p.regs = append(p.regs, qreg{name: name, offset: p.n, size: size})
			p.n += size
		case "creg":
			p.advance()
			if _, _, err := p.regDecl(); err != nil {
				return nil, err
			}
		case "gate":
			if err := p.gateDefStmt(); err != nil {
				return nil, err
			}
		case "opaque":
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return nil, err
			}
		case "barrier":
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return nil, err
			}
		case "measure", "reset":
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return nil, err
			}
		default:
			if err := p.gateStmt(t); err != nil {
				return nil, err
			}
		}
	}
	if p.n == 0 {
		return nil, fmt.Errorf("qasm: no quantum registers declared")
	}
	c := circuit.New(p.n)
	for _, g := range p.gates {
		if err := c.Append(g); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// regDecl parses `name[size];` after the qreg/creg keyword.
func (p *parser) regDecl() (string, int, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", 0, err
	}
	if err := p.expectSymbol("["); err != nil {
		return "", 0, err
	}
	sz := p.advance()
	if sz.kind != tokNumber {
		return "", 0, p.errf(sz, "expected register size")
	}
	size, err := strconv.Atoi(sz.text)
	if err != nil || size <= 0 {
		return "", 0, p.errf(sz, "invalid register size %q", sz.text)
	}
	if err := p.expectSymbol("]"); err != nil {
		return "", 0, err
	}
	if err := p.expectSymbol(";"); err != nil {
		return "", 0, err
	}
	return name.text, size, nil
}

func (p *parser) skipToSemicolon() error {
	for {
		t := p.advance()
		if t.kind == tokEOF {
			return p.errf(t, "unexpected end of input")
		}
		if t.kind == tokSymbol && t.text == ";" {
			return nil
		}
	}
}

// qubitRef parses `name[idx]` and returns the flattened qubit index.
func (p *parser) qubitRef() (int, error) {
	name, err := p.expectIdent()
	if err != nil {
		return 0, err
	}
	var reg *qreg
	for i := range p.regs {
		if p.regs[i].name == name.text {
			reg = &p.regs[i]
			break
		}
	}
	if reg == nil {
		return 0, p.errf(name, "unknown register %q", name.text)
	}
	if err := p.expectSymbol("["); err != nil {
		return 0, err
	}
	idx := p.advance()
	if idx.kind != tokNumber {
		return 0, p.errf(idx, "expected qubit index")
	}
	i, err := strconv.Atoi(idx.text)
	if err != nil || i < 0 || i >= reg.size {
		return 0, p.errf(idx, "qubit index %q out of range [0,%d)", idx.text, reg.size)
	}
	if err := p.expectSymbol("]"); err != nil {
		return 0, err
	}
	return reg.offset + i, nil
}

// gateStmt parses one gate application and adds its gates to p.gates.
func (p *parser) gateStmt(nameTok token) error {
	name := p.advance().text // the identifier itself

	// Optional parameter list.
	params := p.params[:0]
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		p.advance()
		for {
			v, err := p.expr()
			if err != nil {
				return err
			}
			params = append(params, v)
			t := p.advance()
			if t.kind == tokSymbol && t.text == ")" {
				break
			}
			if t.kind != tokSymbol || t.text != "," {
				return p.errf(t, "expected ',' or ')' in parameter list")
			}
		}
	}
	p.params = params

	// Qubit operands.
	qubits := p.qubits[:0]
	for {
		q, err := p.qubitRef()
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
		t := p.advance()
		if t.kind == tokSymbol && t.text == ";" {
			break
		}
		if t.kind != tokSymbol || t.text != "," {
			return p.errf(t, "expected ',' or ';' after qubit")
		}
	}
	p.qubits = qubits

	if def, ok := p.macros[name]; ok {
		gates, err := p.expandMacro(def, params, qubits, 0)
		if err != nil {
			return p.errf(nameTok, "%v", err)
		}
		p.gates = append(p.gates, gates...)
		return nil
	}
	g, err := buildGate(name, params, qubits)
	if err != nil {
		return p.errf(nameTok, "%v", err)
	}
	p.gates = append(p.gates, g)
	return nil
}

// buildGate translates a qelib1-style gate name into the circuit IR.
func buildGate(name string, params []float64, qubits []int) (circuit.Gate, error) {
	needParams := func(k int) error {
		if len(params) != k {
			return fmt.Errorf("gate %s needs %d parameters, has %d", name, k, len(params))
		}
		return nil
	}
	needQubits := func(k int) error {
		if len(qubits) != k {
			return fmt.Errorf("gate %s needs %d qubits, has %d", name, k, len(qubits))
		}
		return nil
	}
	switch name {
	case "u3", "u", "U":
		if err := needParams(3); err != nil {
			return circuit.Gate{}, err
		}
		if err := needQubits(1); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.U(qubits[0], params[0], params[1], params[2]), nil
	case "u2":
		if err := needParams(2); err != nil {
			return circuit.Gate{}, err
		}
		if err := needQubits(1); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.U(qubits[0], math.Pi/2, params[0], params[1]), nil
	case "u1":
		if err := needParams(1); err != nil {
			return circuit.Gate{}, err
		}
		if err := needQubits(1); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.U(qubits[0], 0, 0, params[0]), nil
	case "rz":
		if err := needParams(1); err != nil {
			return circuit.Gate{}, err
		}
		if err := needQubits(1); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.Rz(qubits[0], params[0]), nil
	case "h", "x", "y", "z", "s", "sdg", "t", "tdg", "id":
		if err := needParams(0); err != nil {
			return circuit.Gate{}, err
		}
		if err := needQubits(1); err != nil {
			return circuit.Gate{}, err
		}
		switch name {
		case "h":
			return circuit.H(qubits[0]), nil
		case "x":
			return circuit.X(qubits[0]), nil
		case "y":
			return circuit.Y(qubits[0]), nil
		case "z":
			return circuit.Z(qubits[0]), nil
		case "s":
			return circuit.S(qubits[0]), nil
		case "sdg":
			return circuit.Sdg(qubits[0]), nil
		case "t":
			return circuit.T(qubits[0]), nil
		case "tdg":
			return circuit.Tdg(qubits[0]), nil
		default: // id
			return circuit.U(qubits[0], 0, 0, 0), nil
		}
	case "cx", "CX":
		if err := needQubits(2); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.CNOT(qubits[0], qubits[1]), nil
	case "swap":
		if err := needQubits(2); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.SWAP(qubits[0], qubits[1]), nil
	case "ccx":
		if err := needQubits(3); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.MCT(qubits[:2], qubits[2]), nil
	}
	return circuit.Gate{}, fmt.Errorf("unsupported gate %q", name)
}

// expr parses a constant angle expression: + - * / over numbers and pi,
// with unary minus and parentheses. An expression that overflows to ±Inf
// (or on to NaN) is an error: simulation turns such an angle into NaN
// amplitudes, which no fidelity check rejects, and Write renders it as
// text Parse cannot read.
func (p *parser) expr() (float64, error) {
	t := p.peek()
	v, err := p.addExpr()
	if err == nil && (math.IsInf(v, 0) || math.IsNaN(v)) {
		return 0, p.errf(t, "angle expression overflows")
	}
	return v, err
}

func (p *parser) addExpr() (float64, error) {
	v, err := p.mulExpr()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return v, nil
		}
		p.advance()
		rhs, err := p.mulExpr()
		if err != nil {
			return 0, err
		}
		if t.text == "+" {
			v += rhs
		} else {
			v -= rhs
		}
	}
}

func (p *parser) mulExpr() (float64, error) {
	v, err := p.unaryExpr()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return v, nil
		}
		p.advance()
		rhs, err := p.unaryExpr()
		if err != nil {
			return 0, err
		}
		if t.text == "*" {
			v *= rhs
		} else {
			if rhs == 0 {
				return 0, p.errf(t, "division by zero in angle expression")
			}
			v /= rhs
		}
	}
}

func (p *parser) unaryExpr() (float64, error) {
	t := p.advance()
	switch {
	case t.kind == tokSymbol && t.text == "-":
		v, err := p.unaryExpr()
		return -v, err
	case t.kind == tokSymbol && t.text == "+":
		return p.unaryExpr()
	case t.kind == tokSymbol && t.text == "(":
		v, err := p.addExpr()
		if err != nil {
			return 0, err
		}
		return v, p.expectSymbol(")")
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errf(t, "bad number %q", t.text)
		}
		return v, nil
	case t.kind == tokIdent && t.text == "pi":
		return math.Pi, nil
	}
	return 0, p.errf(t, "unexpected %q in angle expression", t.text)
}
