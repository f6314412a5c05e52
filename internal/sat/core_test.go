package sat

import (
	"context"
	"testing"
	"time"
)

// coreSet normalizes a core into a set for order-independent assertions.
func coreSet(core []Lit) map[Lit]bool {
	m := make(map[Lit]bool, len(core))
	for _, l := range core {
		m[l] = true
	}
	return m
}

// TestUnsatCoreBasic: the core over an implication chain must contain the
// participating assumptions and exclude irrelevant ones.
func TestUnsatCoreBasic(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 4)
	s.AddClause(v[0].Neg(), v[1].Pos()) // v0 → v1
	s.AddClause(v[1].Neg(), v[2].Pos()) // v1 → v2

	// v3 is an unrelated assumption and must not appear in the core.
	if got := s.Solve(v[3].Pos(), v[0].Pos(), v[2].Neg()); got != Unsat {
		t.Fatalf("Solve = %v, want UNSAT", got)
	}
	if !s.UnsatFromAssumptions() {
		t.Fatal("UNSAT not attributed to assumptions")
	}
	core := s.UnsatCore()
	want := coreSet([]Lit{v[0].Pos(), v[2].Neg()})
	if got := coreSet(core); len(got) != len(want) {
		t.Fatalf("core = %v, want {v0, ¬v2}", core)
	} else {
		for l := range want {
			if !got[l] {
				t.Fatalf("core = %v, want {v0, ¬v2}", core)
			}
		}
	}

	// The core's conjunction must really be inconsistent with the clauses.
	if got := s.Solve(core...); got != Unsat {
		t.Fatalf("re-solving the core = %v, want UNSAT", got)
	}
	// And a Sat result clears the attribution.
	if got := s.Solve(v[0].Pos()); got != Sat {
		t.Fatalf("relaxed solve = %v", got)
	}
	if s.UnsatCore() != nil {
		t.Errorf("core not cleared by Sat: %v", s.UnsatCore())
	}
}

// TestUnsatCoreMinimized: literal-removal minimization must drop an
// assumption that participated in the conflict but is semantically
// redundant — here the "loose" guard gL, because the "tight" guard gT is
// inconsistent on its own. Removal runs in reverse assumption order, so
// passing the loose guard first makes the tight one the first removal
// candidate (the nested-bound probing pattern of the exact engine).
func TestUnsatCoreMinimized(t *testing.T) {
	s := NewSolver()
	x, y := s.NewVar(), s.NewVar()
	gL, gT := s.NewVar(), s.NewVar()
	s.AddClause(x.Pos(), y.Pos())  // base: x ∨ y
	s.AddClause(gL.Neg(), x.Neg()) // gL → ¬x
	s.AddClause(gT.Neg(), x.Neg()) // gT → ¬x
	s.AddClause(gT.Neg(), y.Neg()) // gT → ¬y
	if got := s.Solve(gL.Pos(), gT.Pos()); got != Unsat {
		t.Fatalf("Solve = %v, want UNSAT", got)
	}
	core := s.UnsatCore()
	if len(core) != 1 || core[0] != gT.Pos() {
		t.Fatalf("core = %v, want the minimized {gT}", core)
	}
	if fa := s.FailedAssumption(); fa != gT.Pos() {
		t.Errorf("FailedAssumption = %v, want gT", fa)
	}
	// The instance stays reusable and SAT under the loose guard alone.
	if got := s.Solve(gL.Pos()); got != Sat {
		t.Fatalf("solve under gL = %v, want SAT", got)
	}
}

// TestUnsatCoreGenuineUnsat: a clause-set contradiction yields no core.
func TestUnsatCoreGenuineUnsat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	s.AddClause(v[0].Pos())
	s.AddClause(v[0].Neg())
	if got := s.Solve(v[1].Pos()); got != Unsat {
		t.Fatalf("Solve = %v, want UNSAT", got)
	}
	if s.UnsatFromAssumptions() || s.UnsatCore() != nil {
		t.Errorf("genuine UNSAT must not report a core (got %v)", s.UnsatCore())
	}
}

// TestUnsatCoreSingleAssumption: a self-sufficient failed assumption yields
// a singleton core without any minimization probes.
func TestUnsatCoreSingleAssumption(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	s.AddClause(v[0].Neg()) // ¬v0 at root
	if got := s.Solve(v[1].Pos(), v[0].Pos()); got != Unsat {
		t.Fatalf("Solve = %v, want UNSAT", got)
	}
	core := s.UnsatCore()
	if len(core) != 1 || core[0] != v[0].Pos() {
		t.Fatalf("core = %v, want {v0}", core)
	}
}

// TestUnsatCoreConjunctionProperty: on random instances, every reported
// core must itself be inconsistent with the clause set when re-asserted.
func TestUnsatCoreConjunctionProperty(t *testing.T) {
	r := lcg(777)
	for round := 0; round < 60; round++ {
		const nVars = 8
		cnf := randomCNF(int64(round)*31+7, nVars, 18)
		s := NewSolver()
		newVars(s, nVars)
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		var assumptions []Lit
		for i := 0; i < 2+r.next(3); i++ {
			v := Var(r.next(nVars))
			assumptions = append(assumptions, v.Lit(r.next(2) == 0))
		}
		if s.Solve(assumptions...) != Unsat || !s.UnsatFromAssumptions() {
			continue
		}
		core := append([]Lit(nil), s.UnsatCore()...)
		if len(core) == 0 {
			t.Fatalf("round %d: empty core for assumption-caused UNSAT", round)
		}
		members := coreSet(assumptions)
		for _, l := range core {
			if !members[l] {
				t.Fatalf("round %d: core literal %v not among the assumptions %v", round, l, assumptions)
			}
		}
		ref := NewSolver()
		newVars(ref, nVars)
		for _, cl := range cnf {
			ref.AddClause(cl...)
		}
		for _, l := range core {
			ref.AddClause(l)
		}
		if got := ref.Solve(); got != Unsat {
			t.Fatalf("round %d: core %v is not inconsistent (fresh solve = %v)", round, core, got)
		}
	}
}

// conflictCancelCtx cancels itself once the observed solver has passed a
// conflict threshold. Err is only ever called from the solving goroutine,
// so reading Stats is race-free; this makes the cancellation latency test
// fully deterministic.
type conflictCancelCtx struct {
	s     *Solver
	limit int64
}

func (c *conflictCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *conflictCancelCtx) Done() <-chan struct{}       { return nil }
func (c *conflictCancelCtx) Value(any) any               { return nil }
func (c *conflictCancelCtx) Err() error {
	if c.s.Snapshot().Conflicts >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestSolveContextCancellationLatency: once the context reports expiry, the
// solver must stop within ctxPollConflicts conflicts — not merely at
// the next restart boundary, whose late-Luby budgets run thousands of
// conflicts.
func TestSolveContextCancellationLatency(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 10, 9) // hard UNSAT: far more conflicts than the limit
	const limit = 4000
	ctx := &conflictCancelCtx{s: s, limit: limit}
	if got := s.SolveContext(ctx); got != Unknown {
		t.Fatalf("cancelled solve = %v, want Unknown", got)
	}
	if over := s.Snapshot().Conflicts - limit; over > ctxPollConflicts {
		t.Errorf("solver ran %d conflicts past cancellation, want ≤ %d", over, ctxPollConflicts)
	}
	if got := s.Snapshot().Conflicts; got < limit {
		t.Fatalf("instance finished in %d conflicts; raise the hardness of the test instance", got)
	}
}
