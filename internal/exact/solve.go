package exact

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/encoder"
)

// ErrUnsatisfiable marks a problem with no valid mapping: the interaction
// graph does not embed in the coupling graph (on any tried subset). Test
// with errors.Is.
var ErrUnsatisfiable = errors.New("no valid mapping exists")

// ErrBudgetExhausted marks a SAT run whose conflict budget ran out before
// any model was found — there is no best-effort result to return. Test with
// errors.Is; the portfolio's degradation ladder keys its heuristic fallback
// on it (alongside context.DeadlineExceeded).
var ErrBudgetExhausted = errors.New("exact: conflict budget exhausted before any mapping was found")

// Engine selects the reasoning backend.
type Engine int

const (
	// EngineSAT uses the paper's symbolic formulation with the CDCL solver.
	EngineSAT Engine = iota
	// EngineDP uses the dynamic-programming oracle.
	EngineDP
)

// String returns "sat" or "dp".
func (e Engine) String() string {
	if e == EngineDP {
		return "dp"
	}
	return "sat"
}

// ParseEngine converts an engine name back into an Engine. It round-trips
// with Engine.String, which is the single definition of the names — every
// layer (result provenance, CLI flags) resolves through these two
// functions instead of scattered string literals.
func ParseEngine(name string) (Engine, error) {
	for _, e := range []Engine{EngineSAT, EngineDP} {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("exact: unknown engine %q (valid: %s, %s)", name, EngineSAT, EngineDP)
}

// Options configures a Solve run.
type Options struct {
	// Engine selects the backend (default EngineSAT).
	Engine Engine
	// Strategy selects the permutation-point restriction (default
	// StrategyAll, which guarantees minimality).
	Strategy Strategy
	// UseSubsets enables the physical-qubit subset optimization (paper
	// §4.1): all connected n-subsets of the architecture are tried
	// separately and the best result returned.
	UseSubsets bool
	// SAT carries SAT-engine tuning; ignored by the DP engine.
	SAT SATOptions
	// InitialMapping, when non-nil, pins the layout before the first gate
	// (extension; incompatible with UseSubsets since the pin refers to the
	// full architecture's physical indices).
	InitialMapping []int
}

// Solve maps the skeleton to the architecture under the given options and
// returns the best result found. An error is returned for malformed inputs
// or when no valid mapping exists (ErrUnsatisfiable). On a SAT-engine
// failure the accompanying Result, when non-nil, carries only the run's
// Counters — never a Solution. Cancelling the context aborts the run —
// including a §4.1 fan-out between or inside its subset instances — and
// returns an error wrapping ctx.Err(). A solve runs on the caller's
// goroutine; concurrency belongs to the caller, one solve per request.
func Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options) (*Result, error) {
	if sk.Len() == 0 {
		return nil, fmt.Errorf("exact: circuit has no CNOT gates; nothing to map")
	}
	pb := PermBefore(sk, opts.Strategy)
	if opts.InitialMapping != nil && opts.UseSubsets {
		return nil, fmt.Errorf("exact: InitialMapping cannot be combined with UseSubsets")
	}
	if !opts.UseSubsets || sk.NumQubits >= a.NumQubits() {
		return solveOne(ctx, sk, a, pb, opts)
	}
	if opts.Engine == EngineSAT {
		return solveSubsetsShared(ctx, sk, a, pb, opts)
	}
	return solveSubsets(ctx, sk, a, pb, opts)
}

// solveSubsets runs the §4.1 physical-qubit subset optimization for the
// non-SAT engines (the SAT engine routes to solveSubsetsShared, which fuses
// the whole fan-out into one incremental instance): one orbit representative
// per coupling-graph automorphism orbit is solved as an independent
// instance, in orbit order, and the cheapest result wins (the first on a
// tie). Orbit members beyond the representative inherit its cost and proof
// (Result.OrbitHits) — an automorphism of the directed coupling map carries
// any mapping on one subset to an equal-cost mapping on the other. Once a
// zero-cost incumbent exists the remaining representatives are skipped
// outright (Result.SubsetsPruned).
//
// Error handling: ErrUnsatisfiable means "this subset admits no mapping —
// try the others". A conflict-budget exhaustion before any model voids the
// minimality proof but keeps the fan-out alive: an incumbent in hand is
// returned as a best-effort result (Minimal false), and only when NO subset
// yields a model does the budget error surface — never disguised as
// unsatisfiability. Any other failure — an encode failure, an unknown
// engine, a panic — is a real error: it stops the fan-out and surfaces
// verbatim, after a context expiry, which takes precedence.
func solveSubsets(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, pb []bool, opts Options) (*Result, error) {
	start := time.Now()
	subsets := a.ConnectedSubsets(sk.NumQubits)
	if len(subsets) == 0 {
		return nil, fmt.Errorf("exact: %w: no connected subset of %d qubits in %s", ErrUnsatisfiable, sk.NumQubits, a)
	}
	orbits := arch.SubsetOrbits(subsets, a.Automorphisms(0))

	var (
		win      *Result
		minimal  = true // every solved instance proved its own optimum
		unproven bool   // a subset's budget ran dry: optimum unconfirmed
		pruned   int    // representatives skipped behind a zero-cost incumbent
		failure  error  // the real error that stopped the fan-out
	)
	for i, orbit := range orbits {
		if ctx.Err() != nil {
			break
		}
		if win != nil && win.Cost == 0 {
			pruned++ // a zero-cost incumbent cannot be beaten; skip
			continue
		}
		r, err := solveSubset(ctx, sk, a, subsets[orbit[0]], pb, opts, i)
		if errors.Is(err, ErrUnsatisfiable) {
			// No mapping on this subset beats the incumbent (or exists at
			// all); other subsets may still work.
			continue
		}
		if errors.Is(err, ErrBudgetExhausted) {
			// The budget ran out before this subset produced any model. It
			// might still have beaten the incumbent, so the minimality
			// proof is voided — but an incumbent in hand remains a valid
			// best-effort answer, matching the engine's own budget
			// semantics; if NO subset yields a model the budget error
			// surfaces after the loop.
			unproven = true
			continue
		}
		if err != nil {
			failure = err
			break
		}
		minimal = minimal && r.Minimal
		if win == nil || r.Cost < win.Cost {
			win = r
		}
	}

	if err := ctx.Err(); err != nil {
		// The family's deadline expired mid-fan-out. A subset that already
		// produced an incumbent makes this a best-effort aggregation, not a
		// failure — exhaustion on one subset must never discard another's
		// valid mapping (anytime mode only).
		if !anytimeReturn(opts.SAT, win != nil, err) {
			return nil, fmt.Errorf("exact: solve canceled: %w", err)
		}
		unproven = true
	}
	// A context error from the interrupted subset was settled just above.
	if failure != nil && !errors.Is(failure, context.Canceled) && !errors.Is(failure, context.DeadlineExceeded) {
		return nil, failure
	}

	if win == nil {
		if unproven {
			// Every subset either had no mapping or hit the budget; a
			// budget starvation must not masquerade as unsatisfiability.
			return nil, ErrBudgetExhausted
		}
		return nil, fmt.Errorf("exact: %w on any connected %d-subset of %s", ErrUnsatisfiable, sk.NumQubits, a)
	}
	// Minimality is claimed only when every solved instance proved its own
	// (orbit members are proven by their representative) and no subset's
	// budget ran dry. A zero-cost winner is trivially optimal whatever
	// happened elsewhere.
	win.SubsetsPruned = pruned
	win.OrbitHits = len(subsets) - len(orbits)
	win.Minimal = win.Cost == 0 || (minimal && !unproven)
	if !win.Minimal && unproven {
		// Exhaustion elsewhere in the family: the winner's mapping is valid,
		// but an unattempted subset could in principle have been cheaper, so
		// only the trivial gap is known.
		win.markAnytime(win.Cost, -1)
	}
	win.Runtime = time.Since(start)
	return win, nil
}

// solveSubset solves the §4.1 instance restricted to the physical qubits
// rep, the i-th orbit representative. A panicking engine becomes that
// subset's error, stopping the fan-out like any other real failure,
// instead of unwinding through the caller.
func solveSubset(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, rep []int, pb []bool, opts Options, i int) (r *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("exact: subset %d panic: %v", i, p)
		}
	}()
	sub, back := a.Restrict(rep)
	if r, err = solveOne(ctx, sk, sub, pb, opts); err == nil {
		r.SubsetBack = back
	}
	return r, err
}

func solveOne(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, pb []bool, opts Options) (*Result, error) {
	p := encoder.Problem{Skeleton: sk, Arch: a, PermBefore: pb, InitialMapping: opts.InitialMapping}
	switch opts.Engine {
	case EngineDP:
		return SolveDP(ctx, p)
	case EngineSAT:
		return SolveSAT(ctx, p, opts.SAT)
	}
	return nil, fmt.Errorf("exact: unknown engine %d", int(opts.Engine))
}
