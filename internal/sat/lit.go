// Package sat implements a conflict-driven clause-learning (CDCL) Boolean
// satisfiability solver in pure Go: two-watched-literal propagation, VSIDS
// variable ordering with phase saving, first-UIP conflict analysis, Luby
// restarts, learnt-clause database reduction, and incremental solving under
// assumptions.
//
// The hot path is built to do little besides the search: clauses live in
// one flat arena, literal values in a per-literal table (one load per
// value, no polarity decoding), watch lists are compacted in place, and
// conflict analysis and clause intake work in solver-owned scratch slices
// instead of allocating per conflict or per clause.
//
// A Solver is single-goroutine and its search has one configuration, so it
// is deterministic: the same clauses and assumptions give the same model or
// core on every run. Options only bounds the conflicts per call. Callers
// that want parallelism run independent solvers, one per request.
//
// Search identity: a change to how the solver runs must not change what it
// does — the same decisions, propagations, conflicts, learnt clauses,
// models and cores on every input. TestSearchGolden pins the full Snapshot
// and the verdict, model or core on fixed instances, and the CI baseline
// gates (qxbench -baseline) require each row to reproduce its committed
// sat_conflicts. A change that alters the search on purpose updates both
// records with it.
//
// It is the "reasoning engine" of the paper (which used Z3): the symbolic
// mapping formulation of paper §3.2 is encoded to CNF by internal/cnf and
// internal/encoder, and minimized by iteratively tightening a cost bound
// until unsatisfiability proves minimality.
package sat

import "fmt"

// Var is a 0-based propositional variable index.
type Var int32

// Lit is a literal: variable with polarity. The encoding is 2·v for the
// positive literal and 2·v+1 for the negation, following MiniSat.
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// Pos returns the positive literal of v.
func (v Var) Pos() Lit { return Lit(v << 1) }

// Neg returns the negative literal of v.
func (v Var) Neg() Lit { return Lit(v<<1 | 1) }

// Lit returns the literal of v with the given polarity (true = positive).
func (v Var) Lit(positive bool) Lit {
	if positive {
		return v.Pos()
	}
	return v.Neg()
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsPos reports whether the literal is positive.
func (l Lit) IsPos() bool { return l&1 == 0 }

// Not returns the negation of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as "v3" or "¬v3".
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.IsPos() {
		return fmt.Sprintf("v%d", l.Var())
	}
	return fmt.Sprintf("¬v%d", l.Var())
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver was interrupted by budget before deciding.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

// String returns "SAT", "UNSAT" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}
