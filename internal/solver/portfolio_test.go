package solver

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/revlib"
)

// TestTable1Parity checks that Portfolio mode is the DP engine, whatever
// Engine and SAT conflict budget the Config names: on the Table-1 rows
// with at most 24 CNOTs on QX4 (exact and exact-subsets) and the rows of
// at most 4 qubits on QX5 (exact-subsets), the plan carries the lone DP
// run's cost, engine, counters, initial layout and op stream. The initial
// layout and the op stream pin every frame mapping of the solution.
func TestTable1Parity(t *testing.T) {
	columns := []struct {
		method string
		a      *arch.Arch
		keep   func(revlib.Benchmark) bool
	}{
		{NameExact, arch.QX4(), func(b revlib.Benchmark) bool { return b.CNOTs <= 24 }},
		{NameExactSubsets, arch.QX4(), func(b revlib.Benchmark) bool { return b.CNOTs <= 24 }},
		{NameExactSubsets, arch.QX5(), func(b revlib.Benchmark) bool { return b.N <= 4 }},
	}
	for _, col := range columns {
		for _, b := range revlib.Suite() {
			if !col.keep(b) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s/%s", col.a.Name(), col.method, b.Name), func(t *testing.T) {
				t.Parallel()
				sk, err := circuit.ExtractSkeleton(b.Circuit)
				if err != nil {
					t.Fatal(err)
				}
				eo := exact.Options{Engine: exact.EngineDP, UseSubsets: col.method == NameExactSubsets}
				want, err := exact.Solve(context.Background(), sk, col.a, eo)
				if err != nil {
					t.Fatal(err)
				}
				wantOps, err := want.Ops(sk)
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []int64{0, 1, 1 << 10} {
					cfg := Config{Portfolio: true, Engine: exact.EngineSAT}
					cfg.SAT.MaxConflicts = budget
					s, err := New(col.method, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.Solve(context.Background(), sk, col.a)
					if err != nil {
						t.Fatalf("budget %d: %v", budget, err)
					}
					if got.Cost != want.Cost || got.Engine != "dp" || got.Counters != want.Counters {
						t.Errorf("budget %d: cost %d engine %q counters %+v, lone DP %d %q %+v",
							budget, got.Cost, got.Engine, got.Counters, want.Cost, want.Engine, want.Counters)
					}
					if !reflect.DeepEqual(got.Initial, want.InitialMapping()) || !reflect.DeepEqual(got.Ops, wantOps) {
						t.Errorf("budget %d: the plan's layout or ops differ from the lone DP run's", budget)
					}
					if wantMinimal := col.method == NameExact && want.Minimal; got.Minimal != wantMinimal {
						t.Errorf("budget %d: Minimal = %v, want %v", budget, got.Minimal, wantMinimal)
					}
				}
			})
		}
	}
}
