package exact

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/revlib"
)

// BenchmarkMiller11SAT times the SAT descent on one Table-1 row. It reports
// allocations and conflicts/op: the conflict count is fixed by the search,
// so a change to the solver's implementation alone moves ns/op and
// allocs/op and leaves conflicts/op where it was.
func BenchmarkMiller11SAT(b *testing.B) {
	bm, err := revlib.SuiteByName("miller_11")
	if err != nil {
		b.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(bm.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	a := arch.QX4()
	b.ReportAllocs()
	var conflicts int64
	for i := 0; i < b.N; i++ {
		r, err := Solve(bg, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{BinaryDescent: true}})
		if err != nil || r.Cost != 26 {
			b.Fatalf("cost=%v err=%v", r, err)
		}
		conflicts += r.SATConflicts
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}
