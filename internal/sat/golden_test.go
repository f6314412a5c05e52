package sat

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenSolve is everything one Solve call exposes: the verdict, the
// cumulative counters afterwards, the model after Sat (one '0'/'1' per
// variable) and the assumption attribution after Unsat.
type goldenSolve struct {
	status Status
	stats  Stats
	model  string
	failed Lit
	core   []Lit
}

func recordSolve(s *Solver, st Status) goldenSolve {
	g := goldenSolve{status: st, stats: s.Snapshot(), failed: s.FailedAssumption()}
	switch st {
	case Sat:
		var b strings.Builder
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(Var(v)) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		g.model = b.String()
	case Unsat:
		g.core = append([]Lit(nil), s.UnsatCore()...)
	}
	return g
}

func (g goldenSolve) equal(o goldenSolve) bool {
	return g.status == o.status && g.stats == o.stats && g.model == o.model && g.failed == o.failed && slices.Equal(g.core, o.core)
}

// goString renders g as the table literal below, so a change that alters
// the search on purpose can paste its new record.
func (g goldenSolve) goString() string {
	st := g.stats
	h := st.LBDHist
	var b strings.Builder
	fmt.Fprintf(&b, "{status: %s, stats: Stats{Decisions: %d, Propagations: %d, Conflicts: %d, Restarts: %d, Learnt: %d, Removed: %d, Subsumed: %d, ArenaGCs: %d, LBDHist: [6]int64{%d, %d, %d, %d, %d, %d}}",
		map[Status]string{Sat: "Sat", Unsat: "Unsat", Unknown: "Unknown"}[g.status],
		st.Decisions, st.Propagations, st.Conflicts, st.Restarts, st.Learnt, st.Removed, st.Subsumed, st.ArenaGCs,
		h[0], h[1], h[2], h[3], h[4], h[5])
	if g.model != "" {
		fmt.Fprintf(&b, ", model: %q", g.model)
	}
	if g.failed == LitUndef {
		b.WriteString(", failed: LitUndef")
	} else {
		fmt.Fprintf(&b, ", failed: %d", g.failed)
	}
	if g.core != nil {
		b.WriteString(", core: []Lit{")
		for i, l := range g.core {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", int32(l))
		}
		b.WriteString("}")
	}
	return b.String() + "}"
}

// guardedPigeonhole adds PHP(pigeons, holes) plus one guard per hole that
// forbids the hole to every pigeon, and returns the guards: assuming the
// first k guards shrinks the instance to PHP(pigeons, holes−k).
func guardedPigeonhole(s *Solver, pigeons, holes int) []Var {
	pigeonhole(s, pigeons, holes)
	guards := newVars(s, holes)
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			s.AddClause(guards[h].Neg(), Var(p*holes+h).Neg())
		}
	}
	return guards
}

// assumptionSteps solves under the first k guards for each k in ks, the
// descending bound-probe pattern of the exact engine and the sequence of
// BenchmarkIncrementalAssumptions.
func assumptionSteps(s *Solver, guards []Var, ks ...int) []goldenSolve {
	var out []goldenSolve
	for _, k := range ks {
		var assumptions []Lit
		for _, g := range guards[:k] {
			assumptions = append(assumptions, g.Pos())
		}
		out = append(out, recordSolve(s, s.Solve(assumptions...)))
	}
	return out
}

func solveDIMACS(t *testing.T, name string) []goldenSolve {
	nVars, cnf := loadDIMACSClauses(t, filepath.Join("testdata", name))
	s := NewSolver()
	newVars(s, nVars)
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	return []goldenSolve{recordSolve(s, s.Solve())}
}

// TestSearchGolden pins the search itself: decisions, propagations,
// conflicts, restarts, learnt and removed clauses, subsumptions, arena GCs
// and the LBD histogram, plus the model or core, on fixed instances. A
// change meant only to make the solver cheaper (data layout, allocation,
// loop shape) must leave every record unchanged; a change to the search
// itself updates the table in the same commit.
func TestSearchGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) []goldenSolve
		want []goldenSolve
	}{
		{
			name: "php-8-7",
			run: func(*testing.T) []goldenSolve {
				s := NewSolver()
				pigeonhole(s, 8, 7)
				return []goldenSolve{recordSolve(s, s.Solve())}
			},
			want: []goldenSolve{
				{status: Unsat, stats: Stats{Decisions: 9371, Propagations: 107093, Conflicts: 7707, Restarts: 30, Learnt: 7706, Removed: 5769, Subsumed: 46, ArenaGCs: 19, LBDHist: [6]int64{6, 23, 66, 499, 2161, 4951}}, failed: LitUndef},
			},
		},
		{
			name: "php-9-8",
			run: func(*testing.T) []goldenSolve {
				s := NewSolver()
				pigeonhole(s, 9, 8)
				return []goldenSolve{recordSolve(s, s.Solve())}
			},
			want: []goldenSolve{
				{status: Unsat, stats: Stats{Decisions: 25633, Propagations: 281567, Conflicts: 20904, Restarts: 74, Learnt: 20903, Removed: 6125, Subsumed: 285, ArenaGCs: 14, LBDHist: [6]int64{3, 13, 40, 316, 2378, 18153}}, failed: LitUndef},
			},
		},
		{
			name: "assumptions",
			run: func(*testing.T) []goldenSolve {
				s := NewSolver()
				return assumptionSteps(s, guardedPigeonhole(s, 7, 9), 1, 2, 3)
			},
			want: []goldenSolve{
				{status: Sat, stats: Stats{Decisions: 36, Propagations: 72, Conflicts: 0, Restarts: 0, Learnt: 0, Removed: 0, Subsumed: 0, ArenaGCs: 0, LBDHist: [6]int64{0, 0, 0, 0, 0, 0}}, model: "000000010000000100000001000000010000000100000001000000010000000100000000", failed: LitUndef},
				{status: Sat, stats: Stats{Decisions: 58, Propagations: 144, Conflicts: 0, Restarts: 0, Learnt: 0, Removed: 0, Subsumed: 0, ArenaGCs: 0, LBDHist: [6]int64{0, 0, 0, 0, 0, 0}}, model: "000000010000000001000000100000001000000010000000100000001000000110000000", failed: LitUndef},
				{status: Unsat, stats: Stats{Decisions: 1255, Propagations: 14235, Conflicts: 920, Restarts: 6, Learnt: 920, Removed: 583, Subsumed: 5, ArenaGCs: 4, LBDHist: [6]int64{0, 0, 1, 22, 409, 488}}, failed: 130, core: []Lit{130, 128, 126}},
			},
		},
		{
			name: "php_5_4.unsat.cnf",
			run:  func(t *testing.T) []goldenSolve { return solveDIMACS(t, "php_5_4.unsat.cnf") },
			want: []goldenSolve{
				{status: Unsat, stats: Stats{Decisions: 31, Propagations: 277, Conflicts: 28, Restarts: 0, Learnt: 27, Removed: 0, Subsumed: 0, ArenaGCs: 0, LBDHist: [6]int64{3, 7, 7, 10, 0, 0}}, failed: LitUndef},
			},
		},
		{
			name: "php_5_5.sat.cnf",
			run:  func(t *testing.T) []goldenSolve { return solveDIMACS(t, "php_5_5.sat.cnf") },
			want: []goldenSolve{
				{status: Sat, stats: Stats{Decisions: 11, Propagations: 25, Conflicts: 0, Restarts: 0, Learnt: 0, Removed: 0, Subsumed: 0, ArenaGCs: 0, LBDHist: [6]int64{0, 0, 0, 0, 0, 0}}, model: "0000100010001000100010000", failed: LitUndef},
			},
		},
		{
			name: "planted_30.sat.cnf",
			run:  func(t *testing.T) []goldenSolve { return solveDIMACS(t, "planted_30.sat.cnf") },
			want: []goldenSolve{
				{status: Sat, stats: Stats{Decisions: 6, Propagations: 44, Conflicts: 1, Restarts: 0, Learnt: 1, Removed: 0, Subsumed: 0, ArenaGCs: 0, LBDHist: [6]int64{0, 0, 0, 1, 0, 0}}, model: "001010001000001100110111111000", failed: LitUndef},
			},
		},
		{
			name: "rand_9_50.unsat.cnf",
			run:  func(t *testing.T) []goldenSolve { return solveDIMACS(t, "rand_9_50.unsat.cnf") },
			want: []goldenSolve{
				{status: Unsat, stats: Stats{Decisions: 6, Propagations: 21, Conflicts: 7, Restarts: 0, Learnt: 6, Removed: 0, Subsumed: 0, ArenaGCs: 0, LBDHist: [6]int64{3, 3, 0, 0, 0, 0}}, failed: LitUndef},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			same := len(got) == len(tc.want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].equal(tc.want[i])
			}
			if same {
				return
			}
			var b strings.Builder
			for _, g := range got {
				b.WriteString("\t" + g.goString() + ",\n")
			}
			t.Errorf("search diverged from the golden record; got:\n%s", b.String())
		})
	}
}
