package sat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadDIMACSClauses parses a testdata CNF through ParseDIMACS and extracts
// the raw clause list (root units plus problem clauses) so the same formula
// can be replayed into a fresh solver.
func loadDIMACSClauses(t *testing.T, path string) (nVars int, cnf [][]Lit) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	s, err := ParseDIMACS(f)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	units := len(s.trail)
	if len(s.trailLim) > 0 {
		units = s.trailLim[0]
	}
	for i := 0; i < units; i++ {
		cnf = append(cnf, []Lit{s.trail[i]})
	}
	for _, c := range s.clauses {
		cnf = append(cnf, append([]Lit(nil), s.ca.lits(c)...))
	}
	return s.NumVars(), cnf
}

// modelSatisfies checks a Sat witness against the raw clause list.
func modelSatisfies(s *Solver, cnf [][]Lit) bool {
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if s.Value(l.Var()) == l.IsPos() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestDIMACSDifferential drives every testdata instance through a solver
// rebuilt from the raw clause list, asserting that it agrees with the status
// encoded in the filename and that every Sat witness actually satisfies the
// formula.
func TestDIMACSDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata CNFs found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			want := Unsat
			if strings.HasSuffix(path, ".sat.cnf") {
				want = Sat
			} else if !strings.HasSuffix(path, ".unsat.cnf") {
				t.Fatalf("testdata file %s must end in .sat.cnf or .unsat.cnf", path)
			}
			nVars, cnf := loadDIMACSClauses(t, path)
			s := NewSolver()
			newVars(s, nVars)
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
			if got := s.Solve(); got != want {
				t.Errorf("status %v, want %v", got, want)
			} else if want == Sat && !modelSatisfies(s, cnf) {
				t.Errorf("Sat witness violates the formula")
			}
		})
	}
}

// bruteForceUnder decides satisfiability of cnf ∧ assumptions by enumeration.
func bruteForceUnder(cnf [][]Lit, nVars int, assumptions []Lit) bool {
	all := append([][]Lit{}, cnf...)
	for _, l := range assumptions {
		all = append(all, []Lit{l})
	}
	return bruteForceSat(all, nVars)
}

// TestDifferentialAssumptionsParity fuzzes random instances under random
// assumption sets: the solver must agree with brute-force enumeration, Sat
// witnesses must honor the assumptions, and every reported core must be a
// subset of the assumptions that is itself inconsistent.
func TestDifferentialAssumptionsParity(t *testing.T) {
	r := lcg(20260808)
	for round := 0; round < 120; round++ {
		const nVars = 8
		nClauses := 16 + r.next(16)
		cnf := randomCNF(int64(round)*97+13, nVars, nClauses)
		var assumptions []Lit
		for i := 0; i < 1+r.next(3); i++ {
			v := Var(r.next(nVars))
			assumptions = append(assumptions, v.Lit(r.next(2) == 0))
		}
		want := Sat
		if !bruteForceUnder(cnf, nVars, assumptions) {
			want = Unsat
		}

		s := NewSolver()
		newVars(s, nVars)
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve(assumptions...)
		if got != want {
			t.Fatalf("round %d: status %v, want %v (assumptions %v)", round, got, want, assumptions)
		}
		if got == Sat {
			if !modelSatisfies(s, cnf) {
				t.Fatalf("round %d: witness violates formula", round)
			}
			for _, l := range assumptions {
				if s.Value(l.Var()) != l.IsPos() {
					t.Fatalf("round %d: witness violates assumption %v", round, l)
				}
			}
			continue
		}
		if !s.UnsatFromAssumptions() {
			// The clause set alone may be inconsistent; then no core is owed.
			if bruteForceSat(cnf, nVars) {
				t.Fatalf("round %d: assumption-caused UNSAT not attributed", round)
			}
			continue
		}
		core := s.UnsatCore()
		if len(core) == 0 {
			t.Fatalf("round %d: empty core", round)
		}
		members := coreSet(assumptions)
		for _, l := range core {
			if !members[l] {
				t.Fatalf("round %d: core literal %v not an assumption", round, l)
			}
		}
		if bruteForceUnder(cnf, nVars, core) {
			t.Fatalf("round %d: core %v is not inconsistent with the formula", round, core)
		}
	}
}

// TestDifferentialIncremental replays an incremental session — interleaved
// clause additions and assumption probes — against a fresh-solver oracle at
// every step, covering the encoder's grow-as-you-tighten usage pattern.
func TestDifferentialIncremental(t *testing.T) {
	r := lcg(4242)
	for round := 0; round < 40; round++ {
		const nVars = 7
		s := NewSolver()
		newVars(s, nVars)
		var sofar [][]Lit
		for step := 0; step < 6; step++ {
			for i := 0; i < 2+r.next(4); i++ {
				cl := randomCNF(int64(round*100+step*10+i), nVars, 1)[0]
				sofar = append(sofar, cl)
				s.AddClause(cl...)
			}
			v := Var(r.next(nVars))
			assumption := v.Lit(r.next(2) == 0)
			want := Sat
			if !bruteForceUnder(sofar, nVars, []Lit{assumption}) {
				want = Unsat
			}
			if got := s.Solve(assumption); got != want {
				t.Fatalf("round %d step %d: status %v, want %v", round, step, got, want)
			}
			if got, wantBare := s.Solve(), boolStatus(bruteForceSat(sofar, nVars)); got != wantBare {
				t.Fatalf("round %d step %d: bare status %v, want %v", round, step, got, wantBare)
			}
		}
	}
}

func boolStatus(sat bool) Status {
	if sat {
		return Sat
	}
	return Unsat
}
