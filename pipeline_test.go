package qxmap

import (
	"context"
	"testing"
	"testing/quick"
)

// randomElementary builds a deterministic pseudo-random elementary circuit.
func randomElementary(seed int64, n, gates int) *Circuit {
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(mod))
	}
	c := NewCircuit(n)
	for i := 0; i < gates; i++ {
		switch next(6) {
		case 0:
			c.AddH(next(n))
		case 1:
			c.AddT(next(n))
		case 2:
			c.AddTdg(next(n))
		case 3:
			c.AddX(next(n))
		default:
			a := next(n)
			c.AddCNOT(a, (a+1+next(n-1))%n)
		}
	}
	return c
}

// TestPipelineProperty is the top-level end-to-end property: for random
// circuits, every method produces a verified-equivalent, coupling-
// compliant circuit (Map's built-in verification would error otherwise),
// exact methods agree across engines, and no method beats the minimum.
func TestPipelineProperty(t *testing.T) {
	mp := newTestMapper(t)
	a := QX4()
	f := func(seed int64, nRaw, gRaw uint) bool {
		n := 2 + int(nRaw%4)
		gates := 1 + int(gRaw%12)
		c := randomElementary(seed, n, gates)

		min, err := mp.MapWith(context.Background(), c, a, Options{Engine: EngineDP})
		if err != nil {
			return false
		}
		sat, err := mp.MapWith(context.Background(), c, a, Options{Engine: EngineSAT})
		if err != nil || sat.Cost != min.Cost {
			return false
		}
		for _, m := range []Method{MethodExactSubsets, MethodDisjoint, MethodOdd,
			MethodTriangle, MethodHeuristic, MethodAStar} {
			res, err := mp.MapWith(context.Background(), c, a, Options{Method: m, Engine: EngineDP, Seed: seed, Lookahead: 0.5})
			if err != nil {
				// §4.2 restrictions can make an instance unsatisfiable;
				// that is a legitimate outcome, not a failure.
				continue
			}
			if res.Cost < min.Cost {
				return false
			}
		}
		// Optimized mapping stays verified (Map re-verifies internally).
		opt, err := mp.MapWith(context.Background(), c, a, Options{Engine: EngineDP, Optimize: true})
		if err != nil {
			return false
		}
		return opt.TotalGates() <= min.TotalGates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPipelineOnAllArchitectures maps a fixed workload to every catalog
// architecture, relying on Map's internal verification.
func TestPipelineOnAllArchitectures(t *testing.T) {
	mp := newTestMapper(t)
	c := randomElementary(7, 4, 10)
	for _, name := range []string{"ibmqx2", "ibmqx4", "ibmqx5", "melbourne", "tokyo", "linear6", "ring5", "grid2x3"} {
		a, err := ArchByName(name)
		if err != nil {
			t.Fatal(err)
		}
		method := MethodExact
		if a.NumQubits() > 5 {
			method = MethodExactSubsets
		}
		res, err := mp.MapWith(context.Background(), c, a, Options{Method: method, Engine: EngineDP})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Mapped.NumQubits() != a.NumQubits() {
			t.Errorf("%s: mapped over %d qubits", name, res.Mapped.NumQubits())
		}
	}
}

// TestExactEnginesAgreeWithOptimizeAndLayouts stresses option combinations.
func TestExactEnginesAgreeWithOptimizeAndLayouts(t *testing.T) {
	mp := newTestMapper(t)
	c := randomElementary(11, 3, 8)
	pin := []int{2, 0, 1}
	dp, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP, InitialLayout: pin, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineSAT, InitialLayout: pin, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Cost != st.Cost {
		t.Fatalf("pinned+optimized: dp %d vs sat %d", dp.Cost, st.Cost)
	}
	if got := dp.InitialLayout; got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Errorf("layout %v not pinned", got)
	}
}
