package qxmap

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/perm"
)

// materialize produces the final executable circuit (paper Fig. 5) from
// the original circuit, its skeleton, and the mapped op stream: single-
// qubit gates follow their logical qubit's current physical position, SWAP
// ops expand into 3 CNOTs + direction-fixing H gates (7 elementary gates on
// the antisymmetric IBM coupling maps, Fig. 3), and switched CNOTs are
// wrapped in 4 H gates. It returns the mapped circuit and the final layout.
func materialize(orig *Circuit, sk *circuit.Skeleton, a *arch.Arch,
	ops []circuit.MappedOp, initial perm.Mapping) (*Circuit, perm.Mapping, error) {

	out := circuit.New(a.NumQubits())
	if name := orig.Name(); name != "" {
		out.SetName(name + "@" + a.Name())
	}
	mp := initial.Copy()
	opIdx := 0
	nextCNOT := 0 // index into skeleton gates

	emitCNOT := func(control, target int) error {
		switch {
		case a.Allows(control, target):
			out.AddCNOT(control, target)
		case a.Allows(target, control):
			// Direction fix with 4 H gates (paper Fig. 3).
			out.AddH(control).AddH(target)
			out.AddCNOT(target, control)
			out.AddH(control).AddH(target)
		default:
			return fmt.Errorf("qxmap: internal error: CNOT(p%d,p%d) not executable on %s", control, target, a.Name())
		}
		return nil
	}
	// emitSwap expands SWAP(a,b) into CNOT(a,b)·CNOT(b,a)·CNOT(a,b),
	// oriented so the two outer CNOTs run natively: on a one-direction
	// edge only the middle CNOT needs the 4-H fix, 7 gates in all.
	emitSwap := func(op circuit.MappedOp) error {
		p, q := op.A, op.B
		if !a.Allows(p, q) {
			p, q = q, p
		}
		for _, c := range [3][2]int{{p, q}, {q, p}, {p, q}} {
			if err := emitCNOT(c[0], c[1]); err != nil {
				return err
			}
		}
		mp = mp.ApplySwap(p, q)
		return nil
	}

	for origIdx, g := range orig.Gates() {
		if g.Kind.IsSingleQubit() {
			ng := g.Copy()
			ng.Qubits[0] = mp[g.Qubits[0]]
			out.MustAppend(ng)
			continue
		}
		// A CNOT (skeleton gate nextCNOT): first drain any SWAP ops
		// scheduled before it.
		if nextCNOT >= sk.Len() || sk.Gates[nextCNOT].Index != origIdx {
			return nil, nil, fmt.Errorf("qxmap: internal error: gate %d is not the expected skeleton gate", origIdx)
		}
		for opIdx < len(ops) && ops[opIdx].Swap {
			if err := emitSwap(ops[opIdx]); err != nil {
				return nil, nil, err
			}
			opIdx++
		}
		if opIdx >= len(ops) {
			return nil, nil, fmt.Errorf("qxmap: internal error: op stream exhausted at gate %d", origIdx)
		}
		op := ops[opIdx]
		opIdx++
		if op.Swap || op.GateIndex != nextCNOT {
			return nil, nil, fmt.Errorf("qxmap: internal error: op %d out of order", opIdx-1)
		}
		if op.Switched {
			out.AddH(op.Control).AddH(op.Target)
			out.AddCNOT(op.Control, op.Target)
			out.AddH(op.Control).AddH(op.Target)
		} else {
			out.AddCNOT(op.Control, op.Target)
		}
		nextCNOT++
	}
	// Trailing SWAP ops (possible when a permutation point coincides with
	// the end; normally absent because they would be pure overhead).
	for ; opIdx < len(ops); opIdx++ {
		if !ops[opIdx].Swap {
			return nil, nil, fmt.Errorf("qxmap: internal error: unconsumed CNOT op")
		}
		if err := emitSwap(ops[opIdx]); err != nil {
			return nil, nil, err
		}
	}
	return out, mp, nil
}
