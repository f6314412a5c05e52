// The §4.1 subset optimization enumerates every connected n-qubit subset of
// the architecture. Encoding each subset as its own CNF instance discards
// learnt clauses, unsat cores and bound guards at every subset boundary;
// this file instead encodes ALL subsets into ONE instance. Every subset's
// restricted architecture acts on the same n "slot" indices (a connected
// n-subset renumbered 0..n−1), so the mapping variables X, the permutation
// selectors Y with their frame-link consistency clauses, the switch
// variables Z, and the whole cost adder tree are shared verbatim; only the
// coupling-map-dependent constraints differ per subset, and those are
// guarded by a fresh selector literal s_i (cnf.Builder.AddGuardedClause).
// Assuming s_i activates subset i's gate-executability, direction-switch and
// permutation-cost semantics for that call only — learnt clauses and cost
// bounds transfer across subsets, and an unsat core over {selector, bound}
// assumptions refutes whole families of subsets at once.
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

// SubsetProblem is a family of mapping instances sharing one skeleton and
// permutation-point strategy, differing only in the (restricted)
// architecture. All architectures must have exactly Skeleton.NumQubits
// physical qubits — the §4.1 slot space.
type SubsetProblem struct {
	Skeleton *circuit.Skeleton
	// PermBefore has Problem.PermBefore's semantics (strategy restriction);
	// it is architecture-independent and therefore shared by all subsets.
	PermBefore []bool
	// Archs holds one restricted architecture per subset (arch.Restrict of
	// a connected n-subset).
	Archs []*arch.Arch
}

// MultiEncoding is the CNF materialization of a SubsetProblem: one shared
// instance carrying every subset behind selector assumptions. Its layout
// spans the n×n slot space: the Eq. 1 mapping constraints and the Eq. 3
// permutation-consistency links are pure index bookkeeping, independent of
// any coupling map, so they are shared unguarded, while Z is a vector of
// free variables whose meaning is fixed per subset by guarded equivalences.
type MultiEncoding struct {
	layout

	prob SubsetProblem
	// permSw[i][pi] = SWAP count of permutation pi's chosen realization on
	// subset i's coupling graph (−1 when unrealizable there); permW[i][pi]
	// its cost under subset i's cost model (SwapCost·permSw when uniform).
	permSw [][]int
	permW  [][]int
	// uniformH reports whether every subset charges the same constant hUnit
	// per direction switch, in which case the H cost terms are shared
	// unguarded exactly as in the paper model.
	uniformH bool
	hUnit    int

	// Selectors[i] activates subset i's guarded constraints.
	Selectors []sat.Lit

	// C[t] is the shared per-permutation-point swap-cost vector: free bits
	// linked per subset by s_i → (C[t][j] ↔ ⋁ y's whose 7·swaps_i(π) has
	// bit j). The adder tree over C and Z is built once, so every cost
	// bound guard (CostAtMostLit) is shared by all subsets — a bound
	// refuted under one selector seeds the conflict analysis for the next.
	C []cnf.BitVec
	// HV[k] is the free per-gate switch-cost vector, allocated only when
	// some subset carries per-pair H weights (otherwise the shared
	// ScaleByLit(Z[k], hUnit) terms suffice). Linked per subset like C.
	HV []cnf.BitVec
}

// EncodeSubsets builds the shared instance. The context is checked between
// subsets and permutation points, so encoding a large family under an
// expired deadline aborts promptly.
func EncodeSubsets(ctx context.Context, p SubsetProblem, b *cnf.Builder) (*MultiEncoding, error) {
	n := p.Skeleton.NumQubits
	if n == 0 || p.Skeleton.Len() == 0 {
		return nil, fmt.Errorf("encoder: empty problem (n=%d, gates=%d)", n, p.Skeleton.Len())
	}
	if len(p.Archs) == 0 {
		return nil, fmt.Errorf("encoder: no subset architectures to encode")
	}
	if p.PermBefore != nil && len(p.PermBefore) != p.Skeleton.Len() {
		return nil, fmt.Errorf("encoder: PermBefore has %d entries for %d gates", len(p.PermBefore), p.Skeleton.Len())
	}
	if n > 6 {
		return nil, fmt.Errorf("encoder: exhaustive permutation enumeration infeasible for n=%d qubits (paper §4.1 subsets must stay ≤ 6)", n)
	}
	for i, a := range p.Archs {
		if a.NumQubits() != n {
			return nil, fmt.Errorf("encoder: subset %d has %d physical qubits, want exactly n=%d", i, a.NumQubits(), n)
		}
	}

	e := &MultiEncoding{layout: layout{B: b, sk: p.Skeleton, perms: perm.All(n)}, prob: p}
	e.permSw = make([][]int, len(p.Archs))
	e.permW = make([][]int, len(p.Archs))
	e.uniformH = true
	e.hUnit = p.Archs[0].Cost().HUnit()
	for i, a := range p.Archs {
		if cm := a.Cost(); !cm.UniformH() || cm.HUnit() != e.hUnit {
			e.uniformH = false
		}
		e.permSw[i], e.permW[i] = permCosts(e.perms, a)
	}

	e.buildFrames(Problem{Skeleton: p.Skeleton, PermBefore: p.PermBefore})
	e.buildMappingVars(n)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Which permutations are realizable differs per subset and is asserted
	// in buildSubsetConstraints; the transport clauses are shared.
	if err := e.buildPermutationLinks(ctx, nil); err != nil {
		return nil, err
	}
	e.Z = make([]sat.Lit, p.Skeleton.Len())
	for k := range e.Z {
		e.Z[k] = b.NewLit()
	}
	e.Selectors = make([]sat.Lit, len(p.Archs))
	for i := range e.Selectors {
		e.Selectors[i] = b.NewLit()
	}
	e.buildSharedCost()
	for i := range p.Archs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.buildSubsetConstraints(i)
	}
	return e, nil
}

// Selector returns subset i's activation literal.
func (e *MultiEncoding) Selector(i int) sat.Lit { return e.Selectors[i] }

// TrueSelector returns the lowest-indexed subset whose selector is true in
// the current model (after a Sat result). When the driver assumes a family
// guard r → (s_a ∨ s_b ∨ …), the model commits to at least one subset; ties
// (several selectors true at once) resolve to the smallest index, which is
// deterministic for the single-threaded solver.
func (e *MultiEncoding) TrueSelector() (int, bool) {
	for i, s := range e.Selectors {
		if e.litTrue(s) {
			return i, true
		}
	}
	return -1, false
}

// buildSharedCost allocates the free per-point cost vectors C[t] and the
// Eq. 5 adder tree over them — ONCE for every subset. MaxCost covers the
// most expensive subset so a single bit width fits all.
func (e *MultiEncoding) buildSharedCost() {
	maxSwap := 0
	for _, ws := range e.permW {
		for _, w := range ws {
			if w > maxSwap {
				maxSwap = w
			}
		}
	}
	maxH := e.hUnit
	if !e.uniformH {
		maxH = 0
		for _, a := range e.prob.Archs {
			if h := a.Cost().MaxHWeight(a.Pairs()); h > maxH {
				maxH = h
			}
		}
	}
	e.MaxCost = e.NumPermPoints()*maxSwap + len(e.Z)*maxH
	width := cnf.Width(e.MaxCost)

	var vecs []cnf.BitVec
	e.C = make([]cnf.BitVec, e.NumPermPoints())
	for t := range e.C {
		v := make(cnf.BitVec, width)
		for j := range v {
			v[j] = e.B.NewLit()
		}
		e.C[t] = v
		vecs = append(vecs, v)
	}
	if e.uniformH {
		for _, z := range e.Z {
			vecs = append(vecs, e.B.ScaleByLit(z, e.hUnit, width))
		}
	} else {
		// Per-pair H weights: the switch cost of a gate depends on which
		// coupling pair hosts it, which only subset i's constraints know —
		// so allocate free per-gate vectors and link them per subset.
		e.HV = make([]cnf.BitVec, len(e.Z))
		for k := range e.Z {
			v := make(cnf.BitVec, width)
			for j := range v {
				v[j] = e.B.NewLit()
			}
			e.HV[k] = v
			vecs = append(vecs, v)
		}
	}
	e.CostBits = e.B.SumVecs(vecs)
}

// buildSubsetConstraints emits subset i's coupling-map-dependent semantics,
// every clause guarded by the selector s_i:
//
//   - Eq. 2 executability and Eq. 4 direction switching on subset i's
//     coupling pairs (the fwd/rev Tseitin definitions are unguarded — they
//     merely name conjunctions — while the assertions tying them to the
//     shared Z are guarded);
//   - ¬y for permutations unrealizable on subset i's graph;
//   - the links fixing the shared cost bits C[t] to 7·swaps_i(π) of the
//     selected permutation.
func (e *MultiEncoding) buildSubsetConstraints(i int) {
	s := e.Selectors[i]
	a := e.prob.Archs[i]
	cm := a.Cost()

	for k, g := range e.prob.Skeleton.Gates {
		x := e.X[e.gateFrame[k]]
		var fwds, revs []sat.Lit
		for _, pr := range a.Pairs() {
			fwds = append(fwds, e.B.And(x[pr.Control][g.Control], x[pr.Target][g.Target]))
			revs = append(revs, e.B.And(x[pr.Control][g.Target], x[pr.Target][g.Control]))
		}
		fwd := e.B.Or(fwds...)
		rev := e.B.Or(revs...)
		e.B.AddGuardedClause(s, fwd, rev)
		e.B.GuardedEquiv(s, e.Z[k], e.B.And(rev, fwd.Not()))
		if e.HV != nil {
			// Link gate k's free switch-cost vector under s: at most one
			// rev literal is true (the mapping is injective), so z∧rev_p
			// selects the hosting pair's H weight, as in gateHCostVec.
			pairs := a.Pairs()
			zrev := make([]sat.Lit, len(pairs))
			for p := range pairs {
				zrev[p] = e.B.And(e.Z[k], revs[p])
			}
			for j := 0; j < len(e.HV[k]); j++ {
				var ons []sat.Lit
				for p, pr := range pairs {
					if cm.HWeight(pr.Control, pr.Target)>>uint(j)&1 == 1 {
						ons = append(ons, zrev[p])
					}
				}
				e.B.GuardedEquiv(s, e.HV[k][j], e.B.Or(ons...))
			}
		}
	}

	costs := make([]int, len(e.perms))
	for pi, w := range e.permW[i] {
		if w > 0 {
			costs[pi] = w // unrealizable (−1) perms are forced ¬y below
		}
	}
	for t, ys := range e.Y {
		for pi := range e.perms {
			if e.permSw[i][pi] < 0 {
				e.B.AddGuardedClause(s, ys[pi].Not())
			}
		}
		// Guarded SelectConst: bit j of C[t] ↔ some y with bit j set in
		// its cost, under s. The Or gates are unguarded definitions.
		for j := 0; j < len(e.C[t]); j++ {
			var ons []sat.Lit
			for pi, c := range costs {
				if c>>uint(j)&1 == 1 {
					ons = append(ons, ys[pi])
				}
			}
			e.B.GuardedEquiv(s, e.C[t][j], e.B.Or(ons...))
		}
	}
}

// DecodeSubset reads the solver model into a Solution interpreted on subset
// i's architecture. It must only be called after Sat, and only for a subset
// whose selector was true in the model (assumed or decided) — otherwise the
// guarded semantics the decoder validates were never active.
func (e *MultiEncoding) DecodeSubset(i int) (*Solution, error) {
	if !e.litTrue(e.Selectors[i]) {
		return nil, fmt.Errorf("encoder: subset %d's selector is false in the model", i)
	}
	return e.decode(e.prob.Archs[i], e.permSw[i], e.permW[i])
}
