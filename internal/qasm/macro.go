package qasm

import (
	"fmt"

	"repro/internal/circuit"
)

// gateDefStmt parses a `gate name(params) qubits { body }` definition and
// registers it as a macro. Bodies may reference previously defined macros.
func (p *parser) gateDefStmt() error {
	p.advance() // consume "gate"
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &gateDef{name: nameTok.text}

	// Optional formal parameter list.
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		p.advance()
		if t := p.peek(); t.kind == tokSymbol && t.text == ")" {
			p.advance()
		} else {
			for {
				param, err := p.expectIdent()
				if err != nil {
					return err
				}
				def.params = append(def.params, param.text)
				t := p.advance()
				if t.kind == tokSymbol && t.text == ")" {
					break
				}
				if t.kind != tokSymbol || t.text != "," {
					return p.errf(t, "expected ',' or ')' in gate parameters")
				}
			}
		}
	}
	// Formal qubit list.
	for {
		q, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.qubits = append(def.qubits, q.text)
		t := p.peek()
		if t.kind == tokSymbol && t.text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	// Body: gate applications over formal names until '}'.
	for {
		t := p.peek()
		if t.kind == tokSymbol && t.text == "}" {
			p.advance()
			break
		}
		if t.kind == tokEOF {
			return p.errf(t, "unterminated gate body for %q", def.name)
		}
		if t.kind == tokIdent && t.text == "barrier" {
			p.advance()
			if err := p.skipToSemicolon(); err != nil {
				return err
			}
			continue
		}
		mg, err := p.macroGateStmt()
		if err != nil {
			return err
		}
		def.body = append(def.body, mg)
	}
	if p.macros == nil {
		p.macros = map[string]*gateDef{}
	}
	p.macros[def.name] = def
	return nil
}

// macroGateStmt parses one body statement of a gate definition, keeping
// angle expressions as raw token slices for later substitution.
func (p *parser) macroGateStmt() (macroGate, error) {
	nameTok, err := p.expectIdent()
	if err != nil {
		return macroGate{}, err
	}
	mg := macroGate{name: nameTok.text}
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		p.advance()
		depth := 0
		var cur []token
		for {
			t := p.advance()
			switch {
			case t.kind == tokEOF:
				return macroGate{}, p.errf(t, "unterminated parameter list")
			case t.kind == tokSymbol && t.text == "(":
				depth++
				cur = append(cur, t)
			case t.kind == tokSymbol && t.text == ")" && depth > 0:
				depth--
				cur = append(cur, t)
			case t.kind == tokSymbol && t.text == ")":
				mg.exprs = append(mg.exprs, cur)
				goto qubits
			case t.kind == tokSymbol && t.text == "," && depth == 0:
				mg.exprs = append(mg.exprs, cur)
				cur = nil
			default:
				cur = append(cur, t)
			}
		}
	}
qubits:
	for {
		q, err := p.expectIdent()
		if err != nil {
			return macroGate{}, err
		}
		mg.qubits = append(mg.qubits, q.text)
		t := p.advance()
		if t.kind == tokSymbol && t.text == ";" {
			return mg, nil
		}
		if t.kind != tokSymbol || t.text != "," {
			return macroGate{}, p.errf(t, "expected ',' or ';' in gate body")
		}
	}
}

// evalMacroExpr evaluates a tokenized angle expression with formal
// parameters bound to values.
func (p *parser) evalMacroExpr(toks []token, bindings map[string]float64) (float64, error) {
	// Substitute bound identifiers by number tokens, then reuse the
	// expression parser on a temporary token stream.
	sub := make([]token, 0, len(toks)+1)
	for _, t := range toks {
		if t.kind == tokIdent && t.text != "pi" {
			v, ok := bindings[t.text]
			if !ok {
				return 0, p.errf(t, "unknown parameter %q in gate body", t.text)
			}
			sub = append(sub, token{kind: tokNumber, text: fmt.Sprintf("%.17g", v), line: t.line})
			continue
		}
		sub = append(sub, t)
	}
	sub = append(sub, token{kind: tokEOF})
	tmp := &parser{toks: sub}
	tmp.fill()
	v, err := tmp.expr()
	if err != nil {
		return 0, err
	}
	if t := tmp.peek(); t.kind != tokEOF {
		return 0, p.errf(t, "trailing tokens in angle expression")
	}
	return v, nil
}

// expandMacro recursively expands a user-defined gate application into
// elementary circuit gates.
func (p *parser) expandMacro(def *gateDef, params []float64, qubits []int, depth int) ([]circuit.Gate, error) {
	if depth > 32 {
		return nil, fmt.Errorf("qasm: gate %q expansion exceeds depth 32 (recursive definition?)", def.name)
	}
	if len(params) != len(def.params) {
		return nil, fmt.Errorf("qasm: gate %q needs %d parameters, has %d", def.name, len(def.params), len(params))
	}
	if len(qubits) != len(def.qubits) {
		return nil, fmt.Errorf("qasm: gate %q needs %d qubits, has %d", def.name, len(def.qubits), len(qubits))
	}
	angleBind := map[string]float64{}
	for i, name := range def.params {
		angleBind[name] = params[i]
	}
	qubitBind := map[string]int{}
	for i, name := range def.qubits {
		qubitBind[name] = qubits[i]
	}

	var out []circuit.Gate
	for _, mg := range def.body {
		var angles []float64
		for _, e := range mg.exprs {
			v, err := p.evalMacroExpr(e, angleBind)
			if err != nil {
				return nil, err
			}
			angles = append(angles, v)
		}
		qs := make([]int, len(mg.qubits))
		for i, name := range mg.qubits {
			q, ok := qubitBind[name]
			if !ok {
				return nil, fmt.Errorf("qasm: gate %q body references unknown qubit %q", def.name, name)
			}
			qs[i] = q
		}
		if inner, ok := p.macros[mg.name]; ok {
			gates, err := p.expandMacro(inner, angles, qs, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, gates...)
			continue
		}
		g, err := buildGate(mg.name, angles, qs)
		if err != nil {
			return nil, fmt.Errorf("qasm: in gate %q: %w", def.name, err)
		}
		out = append(out, g)
	}
	return out, nil
}
