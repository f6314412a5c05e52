package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/sat"
)

// SATOptions tunes the SAT-based engine.
type SATOptions struct {
	// StartBound, when positive, enforces F ≤ StartBound on the first
	// solve (e.g. a known upper bound from the DP engine or a heuristic).
	// Zero or negative disables it; a genuine zero bound is unnecessary
	// because the descent reaches it anyway. The bound is applied as a
	// guard assumption, never as permanent clauses, so a StartBound below
	// the true optimum of the (possibly strategy-restricted) instance is
	// safe: the engine detects the failed assumption, relaxes the bound in
	// place on the same solver, and continues without a re-encode.
	StartBound int
	// BinaryDescent switches the minimization loop from linear descent
	// (assume F ≤ cost−1 after each model) to binary search on the bound.
	// Both modes run on one solver and one encoding, probing bounds via
	// guard assumptions.
	BinaryDescent bool
	// MaxConflicts bounds each individual solver call; 0 means unlimited.
	// When the budget is exhausted the best model so far is returned with
	// Result.Minimal false (the proof was truncated).
	MaxConflicts int64
	// NoLowerBound disables the admissible lower bound on F (the
	// coupling-graph distance bound, Result.LowerBound) that otherwise
	// seeds the descent: every bound below it counts as refuted, and a
	// model meeting it is accepted without a closing UNSAT probe. It is the
	// escape hatch behind the CLIs' -lower-bound=off flags, and the
	// baseline configuration for probe-count comparisons.
	NoLowerBound bool
	// NoCoreJumps restricts every descent probe to a single bound guard,
	// disabling the unsat-core-guided multi-bound probing. With
	// NoLowerBound it gives the unseeded one-bound-per-probe descent that
	// probe-count comparisons take as their reference; it is also an
	// escape hatch.
	NoCoreJumps bool
	// Anytime changes the resource-exhaustion failure mode of the descent:
	// when the context deadline expires (or the conflict budget runs dry)
	// after at least one satisfying model has been found, the run returns
	// that incumbent as a valid non-minimal Result — Degraded true,
	// BoundGap bracketing the unproven range — instead of an error.
	// Without an incumbent in hand the usual error is still returned, and
	// a caller-initiated cancellation (context.Canceled) always errors:
	// anytime is for deadlines, not for aborts. Off by default: a
	// deadline expiry is then an error.
	Anytime bool
}

// boundGuards is the cost-guard surface the descent helpers need; both the
// single-architecture *encoder.Encoding and the shared §4.1
// *encoder.MultiEncoding provide it, so bound probing and core-to-bound
// translation are written once.
type boundGuards interface {
	CostAtMostLit(bound int) sat.Lit
	GuardBound(g sat.Lit) (int, bool)
}

// SolveSAT finds the minimal-cost mapping for the problem using the paper's
// symbolic formulation and the CDCL solver: solve, decode the model's cost
// C, enforce F ≤ C−1, and repeat until UNSAT — the last model is minimal
// (§3.3, realized by bound tightening instead of a native optimizer).
//
// The descent is fully incremental: the instance is encoded exactly once
// (Result.SATEncodes == 1) and every bound — the caller's StartBound, each
// linear tightening step, each binary-search midpoint — is enforced by
// passing the bound's activation literal (Encoding.CostAtMostLit) as a
// solver assumption. UNSAT probes therefore never poison the instance and
// learnt clauses survive across all probes.
//
// Two mechanisms cut the number of probes further. The descent's lower end
// is seeded with an admissible lower bound from the coupling-graph distance
// sum (Result.LowerBound): bounds below it are never probed, and a model
// meeting it is accepted as minimal without the closing UNSAT call. And
// unless NoCoreJumps is set, each probe assumes the primary bound plus one
// or two optimistic bounds below it; on UNSAT the solver's minimized
// assumption core (sat.Solver.UnsatCore) names the loosest bound that is
// actually inconsistent, so a single call can refute a whole range
// (Result.BoundJumps counts these multi-step advances).
//
// The context cancels the run: the solver notices within a few hundred
// conflicts and SolveSAT returns ctx.Err() (wrapped) — unless
// SATOptions.Anytime is set and an incumbent model exists, in which case a
// deadline expiry returns that incumbent as a Degraded best-effort Result.
func SolveSAT(ctx context.Context, p encoder.Problem, opts SATOptions) (res *Result, err error) {
	// A solver or encoder bug must fail this one solve, not the worker
	// goroutine the caller runs it on: panics become errors here.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("exact: SAT engine panic: %v", r)
		}
	}()
	start := time.Now()
	lb := 0
	if !opts.NoLowerBound {
		lb = admissibleLowerBound(p)
	}
	solver := sat.New(sat.Options{MaxConflicts: opts.MaxConflicts})
	enc, err := encoder.Encode(ctx, p, cnf.NewBuilder(solver))
	if err != nil {
		return nil, err
	}
	res = &Result{
		WorkArch:   p.Arch,
		PermPoints: enc.NumPermPoints(),
		Engine:     EngineSAT.String(),
		Counters:   Counters{SATEncodes: 1, LowerBound: lb},
	}
	d := &descent{
		solver: solver,
		guards: enc,
		res:    res,
		opts:   opts,
		floor:  lb - 1,
		decode: func() (*encoder.Solution, int, error) {
			sol, err := enc.Decode()
			return sol, -1, err
		},
	}
	best, _, err := d.run(ctx)
	// Failures past this point still return the Result with the run's
	// Counters; only a nil error carries a Solution.
	if err != nil {
		return res, err
	}
	if best == nil {
		return res, fmt.Errorf("exact: %w (unsatisfiable instance)", ErrUnsatisfiable)
	}
	res.Solution = best
	res.Cost = best.Cost
	res.Runtime = time.Since(start)
	return res, nil
}

// descent is the §3.3 bound descent on one incremental instance: a single
// architecture's Encoding or, with fam set, the shared §4.1 subset family.
// Each probe assumes the bound guards of the next target, linear (F ≤ C−1
// below the incumbent's cost C) or binary (the midpoint between the
// refuted floor and C), plus, with a family, the guard of the members
// still pending at that target; convergence proves the incumbent minimal.
type descent struct {
	solver *sat.Solver
	guards boundGuards
	res    *Result
	opts   SATOptions
	// floor is the largest bound refuted before any probe: the admissible
	// lower bound minus one.
	floor int
	// decode reads a Sat model into its solution and, with a family, the
	// index of the member the model lies on (−1 without one).
	decode func() (*encoder.Solution, int, error)
	fam    *family
}

// run descends and records the solver's conflict count on the result.
func (d *descent) run(ctx context.Context) (*encoder.Solution, int, error) {
	best, idx, err := d.descend(ctx)
	d.res.SATConflicts = d.solver.Snapshot().Conflicts
	return best, idx, err
}

// descend finds a first model, then tightens the bound until the floor of
// refuted bounds meets the incumbent. It returns the best model and its
// member index; a nil model with a nil error means the instance is proven
// unsatisfiable.
func (d *descent) descend(ctx context.Context) (*encoder.Solution, int, error) {
	// The first solve assumes only the caller's StartBound. An UNSAT that
	// the solver blames on that assumption means it undercut the optimum:
	// drop it and solve again on the same instance, keeping everything
	// learnt while refuting it.
	var bounds []sat.Lit
	if d.opts.StartBound > 0 {
		bounds = []sat.Lit{d.guards.CostAtMostLit(d.opts.StartBound)}
	}
	for {
		assume := bounds
		if d.fam != nil {
			assume = append([]sat.Lit{d.fam.guard(d.fam.pending(math.MaxInt))}, bounds...)
		}
		status := d.probe(ctx, assume, len(bounds) > 0)
		if status == sat.Sat {
			break
		}
		if status == sat.Unknown {
			// No model exists yet, so there is nothing for anytime mode to
			// salvage: both exhaustion kinds are errors.
			if err := ctx.Err(); err != nil {
				return nil, -1, fmt.Errorf("exact: solve canceled: %w", err)
			}
			return nil, -1, ErrBudgetExhausted
		}
		if len(bounds) == 0 || !d.solver.UnsatFromAssumptions() {
			d.res.Minimal = true // no mapping exists (on any member)
			return nil, -1, nil
		}
		bounds = nil
	}
	best, idx, err := d.model()
	if err != nil {
		return nil, -1, err
	}

	lo := d.floor
	for best.Cost-1 > lo {
		target := best.Cost - 1
		if d.opts.BinaryDescent {
			target = lo + (best.Cost-lo)/2
		}
		assume := d.probeBounds(target, lo)
		var pending []int
		if d.fam != nil {
			// pending is never empty here: the floor starts at the
			// smallest member lower bound minus one, so every target is at
			// least that bound, and the member holding it is retired only
			// by an incumbent costing at most that bound, which ends the
			// loop. The smallest-bound member stays pending while it runs.
			pending = d.fam.pending(target)
			assume = append([]sat.Lit{d.fam.guard(pending)}, assume...)
		}
		switch d.probe(ctx, assume, true) {
		case sat.Unknown:
			if err := ctx.Err(); err != nil && !anytimeReturn(d.opts, true, err) {
				return nil, -1, fmt.Errorf("exact: solve canceled: %w", err)
			}
			d.res.markAnytime(best.Cost, lo)
			return best, idx, nil // exhausted mid-descent: best-effort, proof truncated
		case sat.Unsat:
			if len(pending) > 1 {
				// One conflict analysis refuted the target for every
				// pending member at once.
				d.res.CoreFamilyRefutations++
			}
			if refuted := d.refutedBound(assume); refuted > lo {
				lo = refuted
			}
		case sat.Sat:
			if best, idx, err = d.model(); err != nil {
				return nil, -1, err
			}
		}
	}
	d.res.Minimal = true
	return best, idx, nil
}

// probe runs one solver call under the assumptions, counting it as a bound
// probe when it carries a cost guard.
func (d *descent) probe(ctx context.Context, assume []sat.Lit, bounded bool) sat.Status {
	d.res.SATSolves++
	if bounded {
		d.res.BoundProbes++
	}
	return d.solver.SolveContext(ctx, assume...)
}

// model decodes a Sat answer. With a family, the new incumbent also
// retires every member whose admissible lower bound shows it cannot do
// better (Result.SubsetsPruned).
func (d *descent) model() (*encoder.Solution, int, error) {
	sol, idx, err := d.decode()
	if err != nil {
		return nil, -1, err
	}
	if d.fam != nil {
		d.res.SubsetsPruned += d.fam.retire(sol.Cost)
	}
	return sol, idx, nil
}

// probeBounds builds the guard set for probing `bound` given `lo`, the
// largest bound already refuted: the primary guard first, then (unless core
// jumps are disabled) up to two optimistic bounds halfway and quarter-way
// down towards lo. The order matters: the solver's core minimization tries
// to remove later assumptions first, so listing loose→tight steers the
// minimized core towards the loosest refutable bound — the biggest jump.
func (d *descent) probeBounds(bound, lo int) []sat.Lit {
	assume := []sat.Lit{d.guards.CostAtMostLit(bound)}
	if d.opts.NoCoreJumps {
		return assume
	}
	if b1 := lo + (bound-lo)/2; b1 > lo && b1 < bound {
		assume = append(assume, d.guards.CostAtMostLit(b1))
		if b2 := lo + (b1-lo)/2; b2 > lo && b2 < b1 {
			assume = append(assume, d.guards.CostAtMostLit(b2))
		}
	}
	return assume
}

// refutedBound translates the solver's minimized unsat core back into the
// loosest cost bound proven unsatisfiable. The guards are nested (the
// conjunction of a core equals its tightest bound), so a core that kept
// only the loosest assumed guard refutes the whole probed range in one
// call; when that beats the trivial reading of the probe (the tightest
// assumed bound) it counts as a core-guided jump (Result.BoundJumps).
// Assumptions that are not cost guards, such as a family guard, are
// skipped.
func (d *descent) refutedBound(assumed []sat.Lit) int {
	minAssumed := math.MaxInt
	for _, g := range assumed {
		if b, ok := d.guards.GuardBound(g); ok && b < minAssumed {
			minAssumed = b
		}
	}
	refuted := math.MaxInt
	for _, g := range d.solver.UnsatCore() {
		if b, ok := d.guards.GuardBound(g); ok && b < refuted {
			refuted = b
		}
	}
	if refuted == math.MaxInt {
		return minAssumed // defensive: no guard survived into the core
	}
	if minAssumed != math.MaxInt && refuted > minAssumed {
		d.res.BoundJumps++
	}
	return refuted
}

// anytimeReturn reports whether a descent cut off by its context should hand
// back the incumbent instead of erroring: anytime mode is on, a model is in
// hand, and the context died of its deadline. A caller-initiated cancel
// (context.Canceled) always errors — anytime softens deadlines, not aborts.
func anytimeReturn(opts SATOptions, haveModel bool, ctxErr error) bool {
	return opts.Anytime && haveModel && errors.Is(ctxErr, context.DeadlineExceeded)
}
