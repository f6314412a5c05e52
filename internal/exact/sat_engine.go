package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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
	// safe by default: the engine detects the failed assumption, relaxes
	// the bound in place on the same solver, and continues — no caller-side
	// re-encode is needed (the old "retry unbounded" dance).
	StartBound int
	// StrictBound changes the StartBound failure mode: a bound-induced
	// UNSAT is reported as ErrUnsatisfiable instead of being relaxed. The
	// §4.1 fan-out sets it to prune subset instances that cannot beat the
	// shared incumbent cost — for pruning, "no mapping under the bound"
	// IS the answer.
	StrictBound bool
	// BinaryDescent switches the minimization loop from linear descent
	// (assume F ≤ cost−1 after each model) to binary search on the bound.
	// Both modes run on one solver and one encoding, probing bounds via
	// guard assumptions.
	BinaryDescent bool
	// MaxConflicts bounds each individual solver call; 0 means unlimited.
	// When the budget is exhausted the best model so far is returned with
	// Result.Minimal false (the proof was truncated).
	MaxConflicts int64
	// LowerBound, when positive, is an admissible lower bound on F: the
	// descent treats every bound below it as already refuted (seeding the
	// binary search's lower end) and accepts a model matching it without a
	// final UNSAT probe. An inadmissible value (above the true optimum)
	// silently voids the minimality guarantee, so only pass proven bounds.
	// When zero, the engine computes the coupling-graph distance bound
	// itself (see NoLowerBound).
	LowerBound int
	// NoLowerBound disables the automatic admissible lower-bound
	// computation when LowerBound is zero — the escape hatch behind the
	// CLIs' -lower-bound=off flags, and the baseline configuration for
	// probe-count comparisons.
	NoLowerBound bool
	// NoCoreJumps restricts every descent probe to a single bound guard,
	// disabling the unsat-core-guided multi-bound probing. With
	// NoLowerBound it reproduces the pre-core bound-per-probe descent;
	// kept as an escape hatch and for regression benchmarking.
	NoCoreJumps bool
	// Anytime changes the resource-exhaustion failure mode of the descent:
	// when the context deadline expires (or the conflict budget runs dry)
	// after at least one satisfying model has been found, the run returns
	// that incumbent as a valid non-minimal Result — Degraded true,
	// BoundGap bracketing the unproven range — instead of an error.
	// Without an incumbent in hand the usual error is still returned, and
	// a caller-initiated cancellation (context.Canceled) always errors:
	// anytime is for deadlines, not for aborts. Off by default, so
	// deadline expiry keeps its historical error semantics.
	Anytime bool
	// Threads, when > 1, runs every solver call as a clause-sharing
	// portfolio of that many diversified goroutine workers over the one
	// incremental encoding (sat.Pool), capped by the ThreadBudget so that
	// workers × portfolio width never exceeds runtime.GOMAXPROCS (an
	// oversubscribed portfolio only steals cycles from its own winner).
	// The minimal cost and the minimality proof are unaffected, but the
	// witness mapping may differ between runs — the default (≤ 1) keeps
	// the fully deterministic single solver.
	Threads int
	// Budget caps the run's total parallelism. Workers is the number of
	// concurrent solver lanes the CALLER runs (e.g. the DP fan-out's
	// subset workers); SolveSAT multiplies its portfolio width into the
	// same budget, so lanes × width ≤ GOMAXPROCS holds end to end instead
	// of each layer claiming GOMAXPROCS independently. The zero value
	// means one lane.
	Budget ThreadBudget
}

// ThreadBudget is the process-wide parallelism budget shared by every layer
// of a solve: subset/probe worker lanes × SAT portfolio width must not
// exceed runtime.GOMAXPROCS. Each layer fills in its dimension and calls
// Clamp; the portfolio width shrinks first (a narrower portfolio still
// answers correctly), then the lane count.
type ThreadBudget struct {
	// Workers is the number of concurrent solver lanes (≥ 1 after Clamp).
	Workers int
	// Threads is the clause-sharing portfolio width per lane (≥ 1 after
	// Clamp).
	Threads int
}

// Clamp normalizes the budget so Workers ≥ 1, Threads ≥ 1 and
// Workers × Threads ≤ runtime.GOMAXPROCS(0), shrinking Threads before
// Workers.
func (tb ThreadBudget) Clamp() ThreadBudget {
	if tb.Workers < 1 {
		tb.Workers = 1
	}
	if tb.Threads < 1 {
		tb.Threads = 1
	}
	max := runtime.GOMAXPROCS(0)
	if tb.Workers > max {
		tb.Workers = max
	}
	for tb.Threads > 1 && tb.Workers*tb.Threads > max {
		tb.Threads--
	}
	return tb
}

// satProber is the solving surface the bound descent needs; both the plain
// *sat.Solver and the portfolio *sat.Pool implement it, so the descent,
// core jumps and guard relaxation run unchanged on either.
type satProber interface {
	SolveContext(ctx context.Context, assumptions ...sat.Lit) sat.Status
	UnsatFromAssumptions() bool
	UnsatCore() []sat.Lit
	Snapshot() sat.Stats
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
	// A solver or encoder bug must fail this one solve, not whatever
	// goroutine pool the caller runs it on: panics become errors here.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("exact: SAT engine panic: %v", r)
		}
	}()
	start := time.Now()
	lb := opts.LowerBound
	if lb <= 0 {
		lb = 0
		if !opts.NoLowerBound {
			lb = admissibleLowerBound(p)
		}
	}
	if opts.StrictBound && opts.StartBound > 0 && lb > opts.StartBound {
		// The admissible lower bound already exceeds the strict cap: no
		// mapping under the bound exists, no encode or probe needed. The
		// §4.1 fan-out hits this when a subset's geometry cannot beat the
		// shared incumbent.
		res := &Result{WorkArch: p.Arch, Engine: EngineSAT.String(), Counters: Counters{LowerBound: lb}, Minimal: true}
		return res, fmt.Errorf("exact: %w (admissible lower bound %d exceeds the strict bound %d)",
			ErrUnsatisfiable, lb, opts.StartBound)
	}

	solver := sat.New(sat.Options{MaxConflicts: opts.MaxConflicts})
	b := cnf.NewBuilder(solver)
	enc, err := encoder.Encode(ctx, p, b)
	if err != nil {
		return nil, err
	}
	// Portfolio workers are CPU-bound; spawning more than the runtime can
	// schedule in parallel is pure overhead (every worker burns cycles the
	// winner needs), so the width is clamped into the shared ThreadBudget:
	// the caller's concurrent lanes × this portfolio's width stays within
	// GOMAXPROCS. Result.SATThreads reports the effective width.
	budget := opts.Budget
	budget.Threads = opts.Threads
	threads := budget.Clamp().Threads
	var prober satProber = solver
	if threads > 1 {
		// The pool clones the fully built encoding lazily at the first
		// probe and installs the winning worker's model/core back into the
		// master, so enc.Decode and the guard bookkeeping stay untouched.
		prober = sat.NewPool(solver, threads)
	}
	res = &Result{
		WorkArch:   p.Arch,
		PermPoints: enc.NumPermPoints(),
		Engine:     EngineSAT.String(),
		Counters:   Counters{SATEncodes: 1, LowerBound: lb, SATThreads: threads},
	}

	var best *encoder.Solution
	if opts.BinaryDescent {
		best, err = minimizeBinary(ctx, prober, enc, res, opts, lb)
	} else {
		best, err = minimizeLinear(ctx, prober, enc, res, opts, lb)
	}
	snap := prober.Snapshot()
	res.SATConflicts = snap.Conflicts
	res.SharedClauses = snap.SharedImports
	// Failures past this point still return the Result with the run's
	// Counters; only a nil error carries a Solution.
	if err != nil {
		return res, err
	}
	if best == nil {
		if opts.StrictBound && opts.StartBound > 0 {
			return res, fmt.Errorf("exact: %w (no mapping with cost ≤ %d)", ErrUnsatisfiable, opts.StartBound)
		}
		return res, fmt.Errorf("exact: %w (unsatisfiable instance)", ErrUnsatisfiable)
	}
	res.Solution = best
	res.Cost = best.Cost
	res.Runtime = time.Since(start)
	return res, nil
}

// startAssumptions returns the initial bound assumption derived from
// SATOptions.StartBound (nil when disabled).
func startAssumptions(enc boundGuards, opts SATOptions) []sat.Lit {
	if opts.StartBound <= 0 {
		return nil
	}
	return []sat.Lit{enc.CostAtMostLit(opts.StartBound)}
}

// relaxable reports whether an Unsat under the current assumptions may be
// relaxed: no model has been found yet, the only active bound is the
// caller's unproven StartBound (not a descent-derived one), relaxation is
// permitted, and the solver blames the assumption rather than the clause
// set.
func relaxable(solver satProber, opts SATOptions, assumed, haveModel bool) bool {
	return assumed && !haveModel && !opts.StrictBound && solver.UnsatFromAssumptions()
}

// anytimeReturn reports whether a descent cut off by its context should hand
// back the incumbent instead of erroring: anytime mode is on, a model is in
// hand, and the context died of its deadline. A caller-initiated cancel
// (context.Canceled) always errors — anytime softens deadlines, not aborts.
func anytimeReturn(opts SATOptions, haveModel bool, ctxErr error) bool {
	return opts.Anytime && haveModel && errors.Is(ctxErr, context.DeadlineExceeded)
}

// probeAssumptions builds the guard set for probing `bound` given `lo`, the
// largest bound already refuted: the primary guard first, then (unless core
// jumps are disabled) up to two optimistic bounds halfway and quarter-way
// down towards lo. The order matters: the solver's core minimization tries
// to remove later assumptions first, so listing loose→tight steers the
// minimized core towards the loosest refutable bound — the biggest jump.
func probeAssumptions(enc boundGuards, bound, lo int, opts SATOptions) []sat.Lit {
	assume := []sat.Lit{enc.CostAtMostLit(bound)}
	if opts.NoCoreJumps {
		return assume
	}
	if b1 := lo + (bound-lo)/2; b1 > lo && b1 < bound {
		assume = append(assume, enc.CostAtMostLit(b1))
		if b2 := lo + (b1-lo)/2; b2 > lo && b2 < b1 {
			assume = append(assume, enc.CostAtMostLit(b2))
		}
	}
	return assume
}

// coreRefutedBound translates the solver's minimized unsat core back into
// the loosest cost bound proven unsatisfiable. The guards are nested (the
// conjunction of a core equals its tightest bound), so a core that kept
// only the loosest assumed guard refutes the whole probed range in one
// call. It returns the refuted bound and whether core analysis improved on
// the trivial reading of the probe (the tightest assumed bound) — a
// core-guided jump.
func coreRefutedBound(solver satProber, enc boundGuards, assumed []sat.Lit) (int, bool) {
	minAssumed := math.MaxInt
	for _, g := range assumed {
		if b, ok := enc.GuardBound(g); ok && b < minAssumed {
			minAssumed = b
		}
	}
	refuted := math.MaxInt
	for _, g := range solver.UnsatCore() {
		if b, ok := enc.GuardBound(g); ok && b < refuted {
			refuted = b
		}
	}
	if refuted == math.MaxInt {
		refuted = minAssumed // defensive: no guard survived into the core
	}
	return refuted, minAssumed != math.MaxInt && refuted > minAssumed
}

// minimizeLinear performs linear bound descent on one solver instance: each
// satisfying model's cost C is followed by a probe under the guard
// assumption F ≤ C−1 (plus optimistic bounds below it) until UNSAT proves
// minimality of the last model, the model cost reaches the admissible lower
// bound, or the refuted floor `lo` climbs to meet C−1.
func minimizeLinear(ctx context.Context, solver satProber, enc *encoder.Encoding, res *Result, opts SATOptions, lb int) (*encoder.Solution, error) {
	var best *encoder.Solution
	lo := lb - 1 // largest bound known unsatisfiable (admissibility of lb)
	assume := startAssumptions(enc, opts)
	for {
		res.SATSolves++
		if len(assume) > 0 {
			res.BoundProbes++
		}
		status := solver.SolveContext(ctx, assume...)
		switch status {
		case sat.Unknown:
			if err := ctx.Err(); err != nil {
				if !anytimeReturn(opts, best != nil, err) {
					return nil, fmt.Errorf("exact: solve canceled: %w", err)
				}
				res.markAnytime(best.Cost, lo)
				return best, nil // deadline hit with an incumbent: anytime return
			}
			if best == nil {
				return nil, ErrBudgetExhausted
			}
			res.markAnytime(best.Cost, lo)
			return best, nil // budget exhausted: best-effort, proof truncated
		case sat.Unsat:
			if relaxable(solver, opts, len(assume) > 0, best != nil) {
				// The caller's StartBound undercut the true optimum; drop
				// the assumption and continue on the same instance, keeping
				// everything learnt while refuting the bound.
				assume = nil
				continue
			}
			if best == nil {
				res.Minimal = true // the instance (or strict bound) is proven UNSAT
				return nil, nil
			}
			// The probe may have carried optimistic bounds below the
			// primary F ≤ C−1; the core names the loosest bound actually
			// refuted. Only when that reaches C−1 is the model proven
			// minimal — otherwise raise the floor and re-probe.
			refuted, jumped := coreRefutedBound(solver, enc, assume)
			if jumped {
				res.BoundJumps++
			}
			if refuted > lo {
				lo = refuted
			}
			if lo >= best.Cost-1 {
				res.Minimal = true
				return best, nil
			}
			assume = probeAssumptions(enc, best.Cost-1, lo, opts)
			continue
		}
		sol, err := enc.Decode()
		if err != nil {
			return nil, err
		}
		best = sol
		if sol.Cost-1 <= lo {
			// The model meets the admissible lower bound (or the refuted
			// floor): minimal without a closing UNSAT probe.
			res.Minimal = true
			return best, nil
		}
		assume = probeAssumptions(enc, sol.Cost-1, lo, opts)
	}
}

// minimizeBinary performs binary search on the cost bound (the "binary
// search" alternative mentioned in paper §3.3) on the SAME solver and
// encoding as the initial solve. The lower end starts at the admissible
// lower bound instead of −1, each midpoint probe additionally assumes one
// or two optimistic bounds below the midpoint, and an UNSAT probe advances
// the lower end to the loosest bound in the solver's minimized assumption
// core — one call can refute a whole range. SAT probes lower the upper end
// to the model's cost; convergence proves minimality.
func minimizeBinary(ctx context.Context, solver satProber, enc *encoder.Encoding, res *Result, opts SATOptions, lb int) (*encoder.Solution, error) {
	assume := startAssumptions(enc, opts)
	res.SATSolves++
	if len(assume) > 0 {
		res.BoundProbes++
	}
	status := solver.SolveContext(ctx, assume...)
	if status == sat.Unsat && relaxable(solver, opts, len(assume) > 0, false) {
		res.SATSolves++
		status = solver.SolveContext(ctx)
	}
	if status == sat.Unknown {
		// No model exists yet at this point, so there is nothing for
		// anytime mode to salvage: both exhaustion kinds are errors.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("exact: solve canceled: %w", err)
		}
		return nil, ErrBudgetExhausted
	}
	if status != sat.Sat {
		res.Minimal = true // the instance (or strict bound) is proven UNSAT
		return nil, nil
	}
	best, err := enc.Decode()
	if err != nil {
		return nil, err
	}
	lo := lb - 1 // largest bound refuted: seeded by admissibility, raised by cores
	for best.Cost > lo+1 {
		mid := lo + (best.Cost-lo)/2
		assume := probeAssumptions(enc, mid, lo, opts)
		res.SATSolves++
		res.BoundProbes++
		switch solver.SolveContext(ctx, assume...) {
		case sat.Unknown:
			if err := ctx.Err(); err != nil {
				if !anytimeReturn(opts, best != nil, err) {
					return nil, fmt.Errorf("exact: solve canceled: %w", err)
				}
			}
			res.markAnytime(best.Cost, lo)
			return best, nil // exhausted mid-search: best-effort, proof truncated
		case sat.Unsat:
			refuted, jumped := coreRefutedBound(solver, enc, assume)
			if jumped {
				res.BoundJumps++
			}
			if refuted > lo {
				lo = refuted
			}
		case sat.Sat:
			sol, err := enc.Decode()
			if err != nil {
				return nil, err
			}
			best = sol
		}
	}
	res.Minimal = true
	return best, nil
}
