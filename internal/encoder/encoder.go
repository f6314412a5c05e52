// Package encoder builds the paper's symbolic formulation of the mapping
// problem (§3.2, Definitions 4–5, Equations 1–5) as a CNF instance.
//
// Mapping variables x^k_ij state that, before CNOT gate k, logical qubit j
// is mapped to physical qubit i. Permutation variables y^k_π select which
// permutation of physical-qubit states is applied before gate k, and
// switching variables z^k record whether gate k's CNOT direction must be
// reversed (at a cost of 4 H gates). The cost function
//
//	F = Σ_k Σ_π 7·swaps(π)·y^k_π + Σ_k 4·z^k          (Eq. 5)
//
// is materialized as a binary adder tree; minimality is obtained by the
// driver in internal/exact via iterative bound tightening.
//
// Consecutive gates between which no permutation is allowed share one
// x-variable frame, so restricting the permutation points G' (paper §4.2)
// directly shrinks the encoding.
//
// Encode builds the instance for one architecture (Encoding); EncodeSubsets
// builds the §4.1 family of restricted architectures as one selector-guarded
// instance (MultiEncoding, multi.go). Both embed one layout (layout.go): the
// frames, the mapping variables with Eq. 1, the permutation links with
// Eq. 3, the switch variables, the cost bound guards and the model decoder.
// Only the coupling-map constraints and the cost tree differ between them.
package encoder

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/perm"
	"repro/internal/sat"
)

// SwapCost and HCost are the paper's cost-model constants: a SWAP
// decomposes into 7 elementary gates, a direction switch into 4 H gates
// (paper §2.2, Fig. 3). They are the default weights of arch.CostModel;
// every cost computed here flows through the model attached to the
// problem's architecture, so a calibration-weighted model changes the
// objective while the paper model reproduces these constants exactly.
const (
	SwapCost = arch.PaperSwapUnit
	HCost    = arch.PaperHUnit
)

// Problem is one mapping instance to encode.
type Problem struct {
	Skeleton *circuit.Skeleton
	Arch     *arch.Arch
	// PermBefore[k] reports whether the mapping may change (a permutation
	// may be inserted) immediately before skeleton gate k. Index 0 is
	// ignored: the initial mapping is free (paper §3.2). A nil slice means
	// permutations are allowed before every gate — the minimality-
	// guaranteeing configuration of §3.
	PermBefore []bool
	// InitialMapping, when non-nil, pins the layout at the very start of
	// the circuit (before any inserted SWAPs) instead of leaving it to the
	// solver — an extension for mapping circuit fragments whose
	// predecessor already placed the qubits. A permutation point is then
	// allowed before the first gate, so the solver may route away from the
	// pin at the usual SWAP cost.
	InitialMapping perm.Mapping
}

// Encoding is the CNF materialization of a Problem.
type Encoding struct {
	layout

	prob   Problem
	cm     *arch.CostModel // cost model (nil = paper 7/4)
	permSw []int           // SWAP count of the chosen realization of π
	permW  []int           // weighted cost of π (SwapCost·permSw when uniform)
	// gateRev[k][p] is the "gate k sits reversed on coupling pair p" literal
	// (aligned with Arch.Pairs()), kept for per-pair H-weight cost terms.
	gateRev [][]sat.Lit
}

// Encode builds the CNF instance for the problem on the given builder. The
// context is checked between construction phases and while the permutation
// links — the dominant share of the clauses — are generated, so encoding a
// large instance under an already-expired deadline aborts promptly with
// ctx.Err().
func Encode(ctx context.Context, p Problem, b *cnf.Builder) (*Encoding, error) {
	n := p.Skeleton.NumQubits
	m := p.Arch.NumQubits()
	if n > m {
		return nil, fmt.Errorf("encoder: circuit has %d logical qubits but %s has only %d physical", n, p.Arch, m)
	}
	if n == 0 || p.Skeleton.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty problem (n=%d, gates=%d)", n, p.Skeleton.Len())
	}
	if p.PermBefore != nil && len(p.PermBefore) != p.Skeleton.Len() {
		return nil, fmt.Errorf("encoder: PermBefore has %d entries for %d gates", len(p.PermBefore), p.Skeleton.Len())
	}
	if m > 6 {
		return nil, fmt.Errorf("encoder: exhaustive permutation enumeration infeasible for m=%d physical qubits; restrict to a subset first (paper §4.1)", m)
	}
	if p.InitialMapping != nil && (len(p.InitialMapping) != n || !p.InitialMapping.Valid(m)) {
		return nil, fmt.Errorf("encoder: invalid initial mapping %v for n=%d, m=%d", p.InitialMapping, n, m)
	}

	e := &Encoding{layout: layout{B: b, sk: p.Skeleton, perms: perm.All(m)}, prob: p, cm: p.Arch.Cost()}
	e.permSw, e.permW = permCosts(e.perms, p.Arch)
	e.buildFrames(p)
	e.buildMappingVars(m)
	e.pinInitialMapping()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.buildGateConstraints()
	if err := e.buildPermutationLinks(ctx, e.permSw); err != nil {
		return nil, err
	}
	e.buildCost()
	return e, nil
}

// PermAllowed reports whether a permutation may occur before gate k.
// Index 0 always reports false: the initial mapping is free rather than
// produced by a permutation.
func (p Problem) PermAllowed(k int) bool {
	if k == 0 {
		return false // initial mapping is free; no permutation "before" g1
	}
	if p.PermBefore == nil {
		return true
	}
	return p.PermBefore[k]
}

// pinInitialMapping adds unit clauses fixing frame 0 when the problem
// specifies a fixed initial mapping.
func (e *Encoding) pinInitialMapping() {
	if e.prob.InitialMapping == nil {
		return
	}
	for j, i := range e.prob.InitialMapping {
		e.B.AddClause(e.X[0][i][j])
	}
}

// buildGateConstraints adds Eq. (2) (executability) and Eq. (4) (direction
// switching) for every skeleton gate.
func (e *Encoding) buildGateConstraints() {
	e.Z = make([]sat.Lit, e.prob.Skeleton.Len())
	e.gateRev = make([][]sat.Lit, e.prob.Skeleton.Len())
	for k, g := range e.prob.Skeleton.Gates {
		x := e.X[e.gateFrame[k]]
		var fwds, revs []sat.Lit
		for _, pr := range e.prob.Arch.Pairs() {
			// Forward: control on pr.Control, target on pr.Target.
			fwds = append(fwds, e.B.And(x[pr.Control][g.Control], x[pr.Target][g.Target]))
			// Reversed: control/target switched relative to the coupling
			// entry — executable after inserting 4 H gates.
			revs = append(revs, e.B.And(x[pr.Control][g.Target], x[pr.Target][g.Control]))
		}
		fwd := e.B.Or(fwds...)
		rev := e.B.Or(revs...)
		// Eq. (2): some orientation must be executable.
		e.B.AddClause(fwd, rev)
		// Eq. (4): the direction is switched exactly when the forward
		// orientation is not available. (On the antisymmetric IBM coupling
		// maps this is equivalent to the paper's z ↔ rev; for architectures
		// with bidirectional couplings it correctly avoids charging 4 H
		// when the forward direction works.)
		z := e.B.And(rev, fwd.Not())
		e.Z[k] = z
		e.gateRev[k] = revs
	}
}

// buildCost assembles Eq. (5) as a bit vector, generalized to the cost
// model: each permutation selector contributes its (possibly weighted)
// realization cost, each switched gate its direction-switch weight. Under
// the paper model this is exactly 7·swaps(π) per selector and 4 per
// switch.
func (e *Encoding) buildCost() {
	maxSwap := 0
	costs := make([]int, len(e.perms))
	for pi, w := range e.permW {
		if w > 0 {
			costs[pi] = w
			if w > maxSwap {
				maxSwap = w
			}
		}
	}
	uniformH := e.cm.UniformH()
	maxH := e.cm.HUnit()
	if !uniformH {
		maxH = e.cm.MaxHWeight(e.prob.Arch.Pairs())
	}
	e.MaxCost = e.NumPermPoints()*maxSwap + len(e.Z)*maxH
	width := cnf.Width(e.MaxCost)

	var vecs []cnf.BitVec
	for _, ys := range e.Y {
		vecs = append(vecs, e.B.SelectConst(ys, costs, width))
	}
	for k, z := range e.Z {
		if uniformH {
			vecs = append(vecs, e.B.ScaleByLit(z, e.cm.HUnit(), width))
		} else {
			vecs = append(vecs, e.gateHCostVec(k, width))
		}
	}
	e.CostBits = e.B.SumVecs(vecs)
}

// gateHCostVec builds the switch-cost vector of gate k under per-pair H
// weights: the gate's logical pair occupies exactly one coupling pair, and
// at most one of the gateRev literals is true (the mapping is injective),
// so conditioned on Z[k] the vector selects the hosting pair's weight —
// a per-gate SelectConst over z∧rev_p terms.
func (e *Encoding) gateHCostVec(k, width int) cnf.BitVec {
	pairs := e.prob.Arch.Pairs()
	zrev := make([]sat.Lit, len(pairs))
	weights := make([]int, len(pairs))
	for p, pr := range pairs {
		zrev[p] = e.B.And(e.Z[k], e.gateRev[k][p])
		weights[p] = e.cm.HWeight(pr.Control, pr.Target)
	}
	return e.B.SelectConst(zrev, weights, width)
}
