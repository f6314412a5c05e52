package exact

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/sat"
)

// subsetInstance is one orbit representative in the shared §4.1 fan-out.
type subsetInstance struct {
	sub     *arch.Arch // restricted architecture (n qubits, slot indices)
	back    []int      // slot index → original physical qubit
	lb      int        // admissible lower bound on F for this subset
	retired bool       // an incumbent at or below lb retired it
}

// solveSubsetsShared runs the §4.1 physical-qubit subset optimization on ONE
// shared incremental SAT instance instead of one encode+solver per subset.
//
// The connected n-subsets are first bucketed into coupling-graph
// automorphism orbits (arch.SubsetOrbits): subsets related by a symmetry of
// the directed coupling map have identical optimal cost, so only one
// representative per orbit is encoded and the proof transfers to the members
// (Result.OrbitHits). Every representative's architecture-dependent
// constraints enter the instance guarded by a fresh selector literal s_i
// (encoder.EncodeSubsets); the mapping variables, permutation links and the
// whole cost adder tree are shared, so learnt clauses and cost-bound guards
// carry across subsets.
//
// The bound descent (descent) then treats the representatives as ONE
// minimization problem: each probe assumes a family guard r → (s_a ∨ s_b ∨ …)
// over the subsets still able to beat the incumbent, plus the usual
// cost-bound guards. A SAT answer is a model on whichever subset the solver
// chose — a new incumbent that immediately retires every representative
// whose admissible lower bound says it cannot do better
// (Result.SubsetsPruned). An UNSAT answer refutes the bound for the WHOLE
// pending family in one conflict analysis (Result.CoreFamilyRefutations),
// and the unsat core still names the loosest refuted bound for multi-bound
// jumps. The last model standing is the §4.1 optimum, with minimality
// proven for every subset: probed families by UNSAT, retired ones by their
// admissible bounds, orbit members by symmetry.
func solveSubsetsShared(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, pb []bool, opts Options) (out *Result, err error) {
	// One recover boundary for the whole shared fan-out: an encoder or
	// descent bug fails this solve with an error instead of propagating.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("exact: shared subset fan-out panic: %v", r)
		}
	}()
	start := time.Now()
	n := sk.NumQubits
	subsets := a.ConnectedSubsets(n)
	if len(subsets) == 0 {
		return nil, fmt.Errorf("exact: %w: no connected subset of %d qubits in %s", ErrUnsatisfiable, n, a)
	}

	orbits := arch.SubsetOrbits(subsets, a.Automorphisms(0))
	fam := &family{insts: make([]subsetInstance, len(orbits)), guards: make(map[string]sat.Lit)}
	archs := make([]*arch.Arch, len(orbits))
	minLb := math.MaxInt
	for i, orbit := range orbits {
		sub, back := a.Restrict(subsets[orbit[0]])
		lb := 0
		if !opts.SAT.NoLowerBound {
			lb = admissibleLowerBound(encoder.Problem{Skeleton: sk, Arch: sub, PermBefore: pb})
		}
		minLb = min(minLb, lb)
		fam.insts[i] = subsetInstance{sub: sub, back: back, lb: lb}
		archs[i] = sub
	}

	solver := sat.New(sat.Options{MaxConflicts: opts.SAT.MaxConflicts})
	fam.menc, err = encoder.EncodeSubsets(ctx, encoder.SubsetProblem{Skeleton: sk, PermBefore: pb, Archs: archs}, cnf.NewBuilder(solver))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("exact: solve canceled: %w", ctxErr)
		}
		return nil, err
	}

	res := &Result{
		WorkArch:   a,
		PermPoints: fam.menc.NumPermPoints(),
		Engine:     EngineSAT.String(),
		Counters:   Counters{SATEncodes: 1, LowerBound: minLb, OrbitHits: len(subsets) - len(orbits)},
	}
	d := &descent{solver: solver, guards: fam.menc, res: res, opts: opts.SAT, floor: minLb - 1, decode: fam.decode, fam: fam}
	best, idx, err := d.run(ctx)
	if err != nil {
		return res, err
	}
	if best == nil {
		return res, fmt.Errorf("exact: %w on any connected %d-subset of %s", ErrUnsatisfiable, n, a)
	}
	res.Solution = best
	res.Cost = best.Cost
	res.WorkArch = fam.insts[idx].sub
	res.SubsetBack = fam.insts[idx].back
	res.Runtime = time.Since(start)
	return res, nil
}

// family is the §4.1 subset family a shared descent ranges over: one
// orbit representative per member, each with its admissible lower bound.
type family struct {
	menc  *encoder.MultiEncoding
	insts []subsetInstance
	// guards memoizes the guard literal per pending-member set, so
	// re-probing the same set (common: consecutive bounds between
	// incumbent changes) reuses the guard and everything learnt under it.
	guards map[string]sat.Lit
}

// pending returns the indices of members still able to host a mapping of
// cost ≤ bound: not retired by an earlier incumbent and with an admissible
// lower bound permitting the target.
func (f *family) pending(bound int) []int {
	var out []int
	for i, inst := range f.insts {
		if !inst.retired && inst.lb <= bound {
			out = append(out, i)
		}
	}
	return out
}

// guard returns the activation literal r with r → (s_i ∨ …) over the
// pending members, minting (and memoizing) it on first use. Assuming r
// forces the model onto one of their subsets.
func (f *family) guard(pending []int) sat.Lit {
	key := make([]byte, 0, 2*len(pending))
	for _, i := range pending {
		key = append(key, byte(i>>8), byte(i))
	}
	if r, ok := f.guards[string(key)]; ok {
		return r
	}
	r := f.menc.B.NewLit()
	sels := make([]sat.Lit, len(pending))
	for j, i := range pending {
		sels[j] = f.menc.Selector(i)
	}
	f.menc.B.AddGuardedClause(r, sels...)
	f.guards[string(key)] = r
	return r
}

// retire retires every member whose admissible lower bound proves it
// cannot beat an incumbent of the given cost, and returns how many it
// retired. Retired members leave the pending sets — no probe is ever spent
// on them again — and their orbits are covered by the same bound argument.
func (f *family) retire(cost int) int {
	retired := 0
	for i := range f.insts {
		if inst := &f.insts[i]; !inst.retired && inst.lb >= cost {
			inst.retired = true
			retired++
		}
	}
	return retired
}

// decode reads the model's chosen member and its solution.
func (f *family) decode() (*encoder.Solution, int, error) {
	w, ok := f.menc.TrueSelector()
	if !ok {
		return nil, -1, fmt.Errorf("exact: satisfying model activates no subset selector")
	}
	sol, err := f.menc.DecodeSubset(w)
	if err != nil {
		return nil, -1, err
	}
	return sol, w, nil
}
