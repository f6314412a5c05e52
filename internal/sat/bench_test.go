package sat

import "testing"

// BenchmarkPigeonhole87 measures raw CDCL throughput on the PHP(8,7) UNSAT
// proof — the standard stress profile for propagation, conflict analysis and
// clause-database maintenance.
func BenchmarkPigeonhole87(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}

// BenchmarkIncrementalAssumptions measures the incremental probing pattern
// of the exact engine: one instance, repeated solves under tightening
// assumption sets.
func BenchmarkIncrementalAssumptions(b *testing.B) {
	const pigeons, holes = 7, 9
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		guards := guardedPigeonhole(s, pigeons, holes)
		var assumptions []Lit
		for k := 1; k <= 3; k++ {
			assumptions = append(assumptions, guards[k-1].Pos())
			want := Sat
			if holes-k < pigeons {
				want = Unsat
			}
			if got := s.Solve(assumptions...); got != want {
				b.Fatalf("PHP(7,%d) = %v, want %v", holes-k, got, want)
			}
		}
	}
}
