package exact

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/sat"
)

// subsetInstance is one orbit representative in the shared §4.1 fan-out.
type subsetInstance struct {
	sub  *arch.Arch // restricted architecture (n qubits, slot indices)
	back []int      // slot index → original physical qubit
	lb   int        // admissible lower bound on F for this subset
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
// The descent then treats the representatives as ONE minimization problem:
// each probe assumes a family guard r → (s_a ∨ s_b ∨ …) over the subsets
// still able to beat the incumbent, plus the usual cost-bound guards. A SAT
// answer is a model on whichever subset the solver chose — a new incumbent
// that immediately retires every representative whose admissible lower bound
// says it cannot do better (Result.SubsetsPruned). An UNSAT answer refutes
// the bound for the WHOLE pending family in one conflict analysis
// (Result.CoreFamilyRefutations) — the per-subset "strict incumbent probe"
// round of the old fan-out collapses into a single call, and the unsat core
// still names the loosest refuted bound for multi-bound jumps. The last
// model standing is the §4.1 optimum, with minimality proven for every
// subset: probed families by UNSAT, retired ones by their admissible bounds,
// orbit members by symmetry.
//
// Parallel no longer multiplies subset encodes: it widens the clause-sharing
// portfolio (sat.Pool) over the one instance, i.e. bound-probe parallelism,
// clamped into the ThreadBudget.
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
	orbitHits := len(subsets) - len(orbits)

	insts := make([]*subsetInstance, 0, len(orbits))
	prePruned := 0
	strict := opts.SAT.StrictBound && opts.SAT.StartBound > 0
	minLb := math.MaxInt
	for _, orbit := range orbits {
		sub, back := a.Restrict(subsets[orbit[0]])
		lb := opts.SAT.LowerBound
		if lb <= 0 {
			lb = 0
			if !opts.SAT.NoLowerBound {
				lb = admissibleLowerBound(encoder.Problem{Skeleton: sk, Arch: sub, PermBefore: pb})
			}
		}
		if lb < minLb {
			minLb = lb
		}
		if strict && lb > opts.SAT.StartBound {
			// This representative (and its whole orbit) cannot meet the
			// externally asserted cap: refuted without entering the
			// encoding at all, exactly like PR 5's per-subset early refute.
			prePruned++
			continue
		}
		insts = append(insts, &subsetInstance{sub: sub, back: back, lb: lb})
	}
	if len(insts) == 0 {
		res := &Result{
			WorkArch: a, Engine: EngineSAT.String(), Minimal: true, Runtime: time.Since(start),
			Counters: Counters{LowerBound: minLb, SubsetsPruned: prePruned, OrbitHits: orbitHits},
		}
		return res, fmt.Errorf("exact: %w (admissible lower bound %d exceeds the strict bound %d on every connected %d-subset)",
			ErrUnsatisfiable, minLb, opts.SAT.StartBound, n)
	}

	solver := sat.New(sat.Options{MaxConflicts: opts.SAT.MaxConflicts})
	b := cnf.NewBuilder(solver)
	archs := make([]*arch.Arch, len(insts))
	for i, inst := range insts {
		archs[i] = inst.sub
	}
	menc, err := encoder.EncodeSubsets(ctx, encoder.SubsetProblem{Skeleton: sk, PermBefore: pb, Archs: archs}, b)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("exact: solve canceled: %w", ctxErr)
		}
		return nil, err
	}

	// Parallel means bound-probe parallelism here: one shared instance,
	// portfolio width from the thread budget (the fan-out itself is a
	// single lane).
	threads := opts.SAT.Threads
	if opts.Parallel && threads <= 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	budget := opts.SAT.Budget
	budget.Threads = threads
	threads = budget.Clamp().Threads
	var prober satProber = solver
	if threads > 1 {
		prober = sat.NewPool(solver, threads)
	}

	res := &Result{
		WorkArch:   a,
		PermPoints: menc.NumPermPoints(),
		Engine:     EngineSAT.String(),
		Counters: Counters{
			SATEncodes:    1,
			LowerBound:    minLb,
			SATThreads:    threads,
			SubsetsPruned: prePruned,
			OrbitHits:     orbitHits,
		},
	}

	d := &sharedDescent{
		menc:     menc,
		prober:   prober,
		b:        b,
		res:      res,
		opts:     opts.SAT,
		insts:    insts,
		pruned:   make([]bool, len(insts)),
		families: make(map[string]sat.Lit),
		floor:    minLb - 1,
	}
	var best *encoder.Solution
	bestIdx := -1
	if opts.SAT.BinaryDescent {
		best, bestIdx, err = d.minimizeBinary(ctx)
	} else {
		best, bestIdx, err = d.minimizeLinear(ctx)
	}
	snap := prober.Snapshot()
	res.SATConflicts = snap.Conflicts
	res.SharedClauses = snap.SharedImports
	if err != nil {
		return res, err
	}
	if best == nil {
		if strict {
			return res, fmt.Errorf("exact: %w (no connected %d-subset admits a mapping with cost ≤ %d)",
				ErrUnsatisfiable, n, opts.SAT.StartBound)
		}
		return res, fmt.Errorf("exact: %w on any connected %d-subset of %s", ErrUnsatisfiable, n, a)
	}
	res.Solution = best
	res.Cost = best.Cost
	res.WorkArch = insts[bestIdx].sub
	res.SubsetBack = insts[bestIdx].back
	if res.Cost == 0 {
		res.Minimal = true
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// sharedDescent drives the bound descent over the shared §4.1 instance.
type sharedDescent struct {
	menc   *encoder.MultiEncoding
	prober satProber
	b      *cnf.Builder
	res    *Result
	opts   SATOptions
	insts  []*subsetInstance
	pruned []bool
	// families memoizes the guard literal per pending-subset family, so
	// re-probing the same family (common: consecutive bounds between
	// incumbent changes) reuses the guard and everything learnt under it.
	families map[string]sat.Lit
	// floor is the largest bound refuted before any probing: the minimum
	// admissible lower bound over the representatives, minus one.
	floor int
}

// pendingFor returns the indices of representatives still able to host a
// mapping of cost ≤ bound: not retired by an earlier incumbent and with an
// admissible lower bound permitting the target.
func (d *sharedDescent) pendingFor(bound int) []int {
	var out []int
	for i, inst := range d.insts {
		if !d.pruned[i] && inst.lb <= bound {
			out = append(out, i)
		}
	}
	return out
}

// familyGuard returns the activation literal r with r → (s_i ∨ …) over the
// pending representatives, minting (and memoizing) it on first use.
// Assuming r forces the model onto one of the family's subsets.
func (d *sharedDescent) familyGuard(pending []int) sat.Lit {
	key := make([]byte, 0, 2*len(pending))
	for _, i := range pending {
		key = append(key, byte(i>>8), byte(i))
	}
	if r, ok := d.families[string(key)]; ok {
		return r
	}
	r := d.b.NewLit()
	sels := make([]sat.Lit, len(pending))
	for j, i := range pending {
		sels[j] = d.menc.Selector(i)
	}
	d.b.AddGuardedClause(r, sels...)
	d.families[string(key)] = r
	return r
}

// pruneAtLeast retires every representative whose admissible lower bound
// proves it cannot beat the new incumbent cost. Retired representatives
// leave the pending families — no probe is ever spent on them again — and
// their orbits are covered by the same bound argument.
func (d *sharedDescent) pruneAtLeast(cost int) {
	for i, inst := range d.insts {
		if !d.pruned[i] && inst.lb >= cost {
			d.pruned[i] = true
			d.res.SubsetsPruned++
		}
	}
}

// decodeWinner reads the model's chosen subset and its solution.
func (d *sharedDescent) decodeWinner() (*encoder.Solution, int, error) {
	w, ok := d.menc.TrueSelector()
	if !ok {
		return nil, -1, fmt.Errorf("exact: satisfying model activates no subset selector")
	}
	sol, err := d.menc.DecodeSubset(w)
	if err != nil {
		return nil, -1, err
	}
	return sol, w, nil
}

// minimizeLinear is minimizeLinear over the shared family: each probe
// assumes the family guard of the subsets still in the running plus the
// usual primary/optimistic cost-bound guards.
func (d *sharedDescent) minimizeLinear(ctx context.Context) (*encoder.Solution, int, error) {
	var best *encoder.Solution
	bestIdx := -1
	lo := d.floor
	bounds := startAssumptions(d.menc, d.opts)
	for {
		primary := math.MaxInt
		if best != nil {
			primary = best.Cost - 1
		}
		pending := d.pendingFor(primary)
		if len(pending) == 0 {
			// Every un-retired representative's admissible bound meets or
			// exceeds the incumbent: minimal without a closing probe.
			d.res.Minimal = true
			return best, bestIdx, nil
		}
		assume := append([]sat.Lit{d.familyGuard(pending)}, bounds...)
		d.res.SATSolves++
		if len(bounds) > 0 {
			d.res.BoundProbes++
		}
		status := d.prober.SolveContext(ctx, assume...)
		switch status {
		case sat.Unknown:
			if err := ctx.Err(); err != nil {
				if !anytimeReturn(d.opts, best != nil, err) {
					return nil, -1, fmt.Errorf("exact: solve canceled: %w", err)
				}
				d.res.markAnytime(best.Cost, lo)
				return best, bestIdx, nil // deadline hit: best incumbent across the family
			}
			if best == nil {
				return nil, -1, ErrBudgetExhausted
			}
			d.res.markAnytime(best.Cost, lo)
			return best, bestIdx, nil // budget exhausted: best-effort, proof truncated
		case sat.Unsat:
			if relaxable(d.prober, d.opts, len(bounds) > 0, best != nil) {
				// The caller's StartBound undercut the family optimum; drop
				// the bound guards and keep descending on the same instance.
				bounds = nil
				continue
			}
			if best == nil {
				d.res.Minimal = true // no pending subset admits any mapping
				return nil, -1, nil
			}
			if len(pending) > 1 {
				// One conflict analysis refuted the bound for every subset
				// in the family — the shared-instance replacement for a
				// per-subset round of strict-incumbent probes.
				d.res.CoreFamilyRefutations++
			}
			refuted, jumped := coreRefutedBound(d.prober, d.menc, assume)
			if jumped {
				d.res.BoundJumps++
			}
			if refuted > lo {
				lo = refuted
			}
			if lo >= best.Cost-1 {
				d.res.Minimal = true
				return best, bestIdx, nil
			}
			bounds = probeAssumptions(d.menc, best.Cost-1, lo, d.opts)
			continue
		}
		sol, w, err := d.decodeWinner()
		if err != nil {
			return nil, -1, err
		}
		best, bestIdx = sol, w
		d.pruneAtLeast(sol.Cost)
		if sol.Cost-1 <= lo {
			d.res.Minimal = true
			return best, bestIdx, nil
		}
		bounds = probeAssumptions(d.menc, sol.Cost-1, lo, d.opts)
	}
}

// minimizeBinary is minimizeBinary over the shared family. Midpoints whose
// pending family is empty are refuted by the admissible bounds alone — the
// floor advances without a solver call.
func (d *sharedDescent) minimizeBinary(ctx context.Context) (*encoder.Solution, int, error) {
	pending := d.pendingFor(math.MaxInt)
	bounds := startAssumptions(d.menc, d.opts)
	assume := append([]sat.Lit{d.familyGuard(pending)}, bounds...)
	d.res.SATSolves++
	if len(bounds) > 0 {
		d.res.BoundProbes++
	}
	status := d.prober.SolveContext(ctx, assume...)
	if status == sat.Unsat && relaxable(d.prober, d.opts, len(bounds) > 0, false) {
		d.res.SATSolves++
		status = d.prober.SolveContext(ctx, d.familyGuard(pending))
	}
	if status == sat.Unknown {
		// No model exists yet: nothing for anytime mode to salvage.
		if err := ctx.Err(); err != nil {
			return nil, -1, fmt.Errorf("exact: solve canceled: %w", err)
		}
		return nil, -1, ErrBudgetExhausted
	}
	if status != sat.Sat {
		d.res.Minimal = true // no subset admits any mapping (or any under the strict bound)
		return nil, -1, nil
	}
	best, bestIdx, err := d.decodeWinner()
	if err != nil {
		return nil, -1, err
	}
	d.pruneAtLeast(best.Cost)
	lo := d.floor
	for best.Cost > lo+1 {
		mid := lo + (best.Cost-lo)/2
		pending := d.pendingFor(mid)
		if len(pending) == 0 {
			// No un-retired representative can even reach mid: the
			// admissible bounds refute it without a probe.
			lo = mid
			continue
		}
		bounds := probeAssumptions(d.menc, mid, lo, d.opts)
		assume := append([]sat.Lit{d.familyGuard(pending)}, bounds...)
		d.res.SATSolves++
		d.res.BoundProbes++
		switch d.prober.SolveContext(ctx, assume...) {
		case sat.Unknown:
			if err := ctx.Err(); err != nil {
				if !anytimeReturn(d.opts, best != nil, err) {
					return nil, -1, fmt.Errorf("exact: solve canceled: %w", err)
				}
			}
			d.res.markAnytime(best.Cost, lo)
			return best, bestIdx, nil // exhausted mid-search: best-effort
		case sat.Unsat:
			if len(pending) > 1 {
				d.res.CoreFamilyRefutations++
			}
			refuted, jumped := coreRefutedBound(d.prober, d.menc, assume)
			if jumped {
				d.res.BoundJumps++
			}
			if refuted > lo {
				lo = refuted
			}
		case sat.Sat:
			sol, w, err := d.decodeWinner()
			if err != nil {
				return nil, -1, err
			}
			best, bestIdx = sol, w
			d.pruneAtLeast(best.Cost)
		}
	}
	d.res.Minimal = true
	return best, bestIdx, nil
}
