package encoder

import (
	"context"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/perm"
	"repro/internal/sat"
)

// layout is the part of the CNF that a single architecture (Encoding) and a
// §4.1 subset family (MultiEncoding) build alike: the x-variable frames of
// the permutation-point strategy, the mapping variables X with Eq. 1, the
// permutation selectors Y with their Eq. 3 links, the switch variables Z,
// the cost bit vector F with its bound guards, and the model decoder. Both
// encodings embed it, so its exported fields and methods are theirs.
type layout struct {
	B *cnf.Builder

	sk    *circuit.Skeleton
	perms []perm.Perm // Π over the physical qubits, indexed as in Y

	// frames[f] = index of the first skeleton gate of frame f; gates of
	// frame f are [frames[f], frames[f+1]) (last frame ends at |G|). A
	// pinned initial mapping adds the gate-free frame −1 in front.
	frames []int
	// gateFrame[k] = frame index of skeleton gate k.
	gateFrame []int

	// X[f][i][j]: in frame f, logical qubit j sits on physical qubit i.
	X [][][]sat.Lit
	// Y[t][p]: permutation p (index into perms) is applied at permutation
	// point t, which sits between frames t and t+1.
	Y [][]sat.Lit
	// Z[k]: skeleton gate k is executed with switched direction.
	Z []sat.Lit

	// CostBits is the binary value of F.
	CostBits cnf.BitVec
	// MaxCost is the largest value F can take in this encoding.
	MaxCost int

	// costGuards memoizes the activation literal per bound handed out by
	// CostAtMostLit, so repeated probes of the same bound reuse both the
	// guard variable and its clauses; guardBounds is the reverse index, so
	// an unsat core over guard assumptions can be mapped back to the bounds
	// it refutes (GuardBound).
	costGuards  map[int]sat.Lit
	guardBounds map[sat.Lit]int
}

// buildFrames groups the skeleton gates into x-variable frames: a new frame
// starts at the first gate and before every gate where p's strategy allows
// a permutation. Restricting the permutation points G' (paper §4.2) thus
// directly shrinks the encoding.
func (l *layout) buildFrames(p Problem) {
	l.gateFrame = make([]int, l.sk.Len())
	if p.InitialMapping != nil {
		// Virtual gate-free frame holding the pinned layout, separated
		// from the first gate's frame by a permutation point.
		l.frames = append(l.frames, -1)
	}
	for k := 0; k < l.sk.Len(); k++ {
		if k == 0 || p.PermAllowed(k) {
			l.frames = append(l.frames, k)
		}
		l.gateFrame[k] = len(l.frames) - 1
	}
}

// NumFrames returns the number of distinct x-variable frames.
func (l *layout) NumFrames() int { return len(l.frames) }

// NumPermPoints returns |G'|: the number of places a permutation may be
// inserted (paper column |G'|; one per frame boundary).
func (l *layout) NumPermPoints() int { return len(l.frames) - 1 }

// buildMappingVars allocates the m×n mapping variables of every frame and
// adds Eq. 1: each logical qubit sits on exactly one physical qubit, and
// each physical qubit holds at most one logical qubit.
func (l *layout) buildMappingVars(m int) {
	n := l.sk.NumQubits
	l.X = make([][][]sat.Lit, len(l.frames))
	for f := range l.X {
		l.X[f] = make([][]sat.Lit, m)
		for i := 0; i < m; i++ {
			l.X[f][i] = make([]sat.Lit, n)
			for j := 0; j < n; j++ {
				l.X[f][i][j] = l.B.NewLit()
			}
		}
		for j := 0; j < n; j++ {
			col := make([]sat.Lit, m)
			for i := 0; i < m; i++ {
				col[i] = l.X[f][i][j]
			}
			l.B.ExactlyOne(col...)
		}
		for i := 0; i < m; i++ {
			l.B.AtMostOne(l.X[f][i]...)
		}
	}
}

// buildPermutationLinks adds Eq. 3: the y^k_π selectors and their
// consistency with adjacent x frames. Following footnote 5, the implication
// is left-handed (y → consistency) combined with an exactly-one constraint,
// which also handles n < m, where the permutation on unoccupied physical
// qubits is not determined by the mappings. A non-nil permSw forces ¬y for
// every permutation it marks unrealizable (−1, a disconnected graph); the
// subset family passes nil and asserts realizability per subset instead.
// The context is checked at every permutation point, the dominant share of
// the clauses.
func (l *layout) buildPermutationLinks(ctx context.Context, permSw []int) error {
	n := l.sk.NumQubits
	l.Y = make([][]sat.Lit, l.NumPermPoints())
	for t := range l.Y {
		if err := ctx.Err(); err != nil {
			return err
		}
		before, after := l.X[t], l.X[t+1]
		ys := make([]sat.Lit, len(l.perms))
		for pi, pp := range l.perms {
			y := l.B.NewLit()
			ys[pi] = y
			if permSw != nil && permSw[pi] < 0 {
				l.B.AddClause(y.Not())
				continue
			}
			// y → (x^{k-1}_ij ↔ x^k_{π(i)j}) for all i, j.
			for i := range before {
				for j := 0; j < n; j++ {
					l.B.AddClause(y.Not(), before[i][j].Not(), after[pp[i]][j])
					l.B.AddClause(y.Not(), before[i][j], after[pp[i]][j].Not())
				}
			}
		}
		l.B.ExactlyOne(ys...)
		l.Y[t] = ys
	}
	return nil
}

// permCosts prices every permutation of perms (over all of a's physical
// qubits) on architecture a: sw[pi] is the SWAP count of its cheapest
// realization (−1 when unrealizable) and w[pi] its cost under a's cost
// model (SwapUnit·sw when the swap weights are uniform). Uniform weights
// need only the distances from the identity, one breadth-first search;
// a weighted model builds its Dijkstra table.
func permCosts(perms []perm.Perm, a *arch.Arch) (sw, w []int) {
	cm := a.Cost()
	m := a.NumQubits()
	sw = make([]int, len(perms))
	w = make([]int, len(perms))
	if cm.UniformSwap() {
		search := perm.NewSwapSearch(m, a.UndirectedEdges())
		search.Search(perm.IdentityMapping(m))
		for pi, pp := range perms {
			sw[pi] = search.Dist(perm.Mapping(pp))
			w[pi] = sw[pi]
			if sw[pi] > 0 {
				w[pi] = cm.SwapUnit() * sw[pi]
			}
		}
		return sw, w
	}
	table := perm.NewWeightedSwapTable(perm.NewSpace(m, m), a.UndirectedEdges(), cm.EdgeSwapWeight)
	for pi, pp := range perms {
		sw[pi] = table.PermSwapsAlong(pp)
		w[pi] = table.PermWeight(pp)
	}
	return sw, w
}

// AssertCostAtMost permanently adds the constraint F ≤ bound. Successive
// calls must use non-increasing bounds (a permanently tightened instance
// cannot be relaxed). The incremental descent in internal/exact uses
// CostAtMostLit instead, which leaves the instance reusable.
func (l *layout) AssertCostAtMost(bound int) {
	l.B.AssertLessEqConst(l.CostBits, bound)
}

// CostAtMostLit returns an activation literal g encoding g → (F ≤ bound).
// Passing g as a Solve assumption enforces the bound for that call only:
// an UNSAT probe does not poison the instance, and learnt clauses survive
// across probes of different bounds — the incremental §3.3 descent in
// internal/exact drives every probe through these guards on one solver.
// In the subset family the cost tree is shared, so one guard serves every
// subset. Guards are memoized per bound. A bound ≥ MaxCost is vacuous and
// returns the constant-true literal.
func (l *layout) CostAtMostLit(bound int) sat.Lit {
	if bound >= l.MaxCost {
		return l.B.True()
	}
	if g, ok := l.costGuards[bound]; ok {
		return g
	}
	g := l.B.LessEqConstGuard(l.CostBits, bound)
	if l.costGuards == nil {
		l.costGuards = make(map[int]sat.Lit)
		l.guardBounds = make(map[sat.Lit]int)
	}
	l.costGuards[bound] = g
	l.guardBounds[g] = bound
	return g
}

// GuardBound maps a guard literal minted by CostAtMostLit back to the bound
// it activates. The incremental descent uses it to translate an unsat core
// over guard assumptions into the tightest cost bound the conflict actually
// refuted. Non-guard literals (including the vacuous constant-true literal
// returned for bounds ≥ MaxCost) report false.
func (l *layout) GuardBound(g sat.Lit) (int, bool) {
	b, ok := l.guardBounds[g]
	return b, ok
}
