package qxmap

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/verify"
)

// newTestMapper returns a Mapper with the zero-option configuration for
// one test or benchmark, closed when it ends.
func newTestMapper(tb testing.TB) *Mapper {
	tb.Helper()
	m, err := NewMapper()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	return m
}

func TestMapFigure1aMatchesPaperExample7(t *testing.T) {
	mp := newTestMapper(t)
	// The central headline check: mapping the paper's running example to
	// IBM QX4 costs exactly F = 4 (Fig. 5), and the result is a verified-
	// equivalent, coupling-compliant circuit.
	for _, engine := range []Engine{EngineSAT, EngineDP} {
		res, err := mp.MapWith(context.Background(), Figure1a(), QX4(), Options{Engine: engine})
		if err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
		if res.Cost != 4 {
			t.Fatalf("engine %d: cost = %d, want 4", engine, res.Cost)
		}
		if !res.Minimal {
			t.Error("exact method should report Minimal")
		}
		// F = 4 means one direction switch, no SWAPs: mapped size is
		// original (8) + 4 H.
		if res.Swaps != 0 || res.Switches != 1 {
			t.Errorf("swaps=%d switches=%d, want 0,1", res.Swaps, res.Switches)
		}
		if res.TotalGates() != 12 {
			t.Errorf("mapped gates = %d, want 12", res.TotalGates())
		}
	}
}

func TestMapAllMethodsVerify(t *testing.T) {
	mp := newTestMapper(t)
	c := Figure1a()
	a := QX4()
	costs := map[Method]int{}
	for m := MethodExact; m <= MethodHeuristic; m++ {
		opts := Options{Method: m, Engine: EngineDP, Seed: 7}
		res, err := mp.MapWith(context.Background(), c, a, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		costs[m] = res.Cost
		// Verification is on by default; double-check compliance anyway.
		if err := verify.CouplingCompliant(res.Mapped, a); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
	// Paper Example 10: every restricted strategy still reaches F = 4 on
	// the running example; the heuristic may be worse.
	for _, m := range []Method{MethodExact, MethodExactSubsets, MethodDisjoint, MethodOdd, MethodTriangle} {
		if costs[m] != 4 {
			t.Errorf("%v: cost = %d, want 4", m, costs[m])
		}
	}
	if costs[MethodHeuristic] < 4 {
		t.Errorf("heuristic cost %d beats the minimum", costs[MethodHeuristic])
	}
}

func TestMapCircuitWithoutCNOTs(t *testing.T) {
	mp := newTestMapper(t)
	c := NewCircuit(3).AddH(0).AddT(1).AddX(2)
	res, err := mp.MapWith(context.Background(), c, QX4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || res.TotalGates() != 3 {
		t.Errorf("cost=%d gates=%d", res.Cost, res.TotalGates())
	}
	if !res.InitialLayout.Equal(res.FinalLayout) {
		t.Error("layout should be unchanged")
	}
}

func TestMapRejectsOversizedCircuit(t *testing.T) {
	mp := newTestMapper(t)
	c := NewCircuit(6).AddCNOT(0, 5)
	if _, err := mp.MapWith(context.Background(), c, QX4(), Options{}); err == nil {
		t.Error("6 qubits on QX4 should fail")
	}
}

func TestMapRejectsNonElementary(t *testing.T) {
	mp := newTestMapper(t)
	c := NewCircuit(3).AddMCT([]int{0, 1}, 2)
	if _, err := mp.MapWith(context.Background(), c, QX4(), Options{}); err == nil {
		t.Error("MCT should be rejected (decompose first)")
	}
}

func TestMapQASMRoundTrip(t *testing.T) {
	mp := newTestMapper(t)
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[0];
t q[2];
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	out, err := WriteQASM(res.Mapped)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "qreg q[5];") {
		t.Errorf("mapped QASM should declare 5 qubits:\n%s", out)
	}
	back, err := ParseQASM(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Mapped.Len() {
		t.Error("QASM round trip changed gate count")
	}
}

func TestMapOnQX5ViaSubsets(t *testing.T) {
	mp := newTestMapper(t)
	// 16-qubit device: exact methods need the subset optimization.
	c := NewCircuit(3).AddCNOT(0, 1).AddCNOT(1, 2).AddCNOT(0, 2)
	res, err := mp.MapWith(context.Background(), c, QX5(), Options{Method: MethodExactSubsets, Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CouplingCompliant(res.Mapped, QX5()); err != nil {
		t.Fatal(err)
	}
	if res.Mapped.NumQubits() != 16 {
		t.Errorf("mapped over %d qubits", res.Mapped.NumQubits())
	}
}

func TestHeuristicNeverBelowExact(t *testing.T) {
	mp := newTestMapper(t)
	for seed := int64(0); seed < 5; seed++ {
		c := NewCircuit(4).
			AddCNOT(0, 1).AddCNOT(2, 3).AddCNOT(0, 2).
			AddCNOT(1, 3).AddCNOT(0, 3).AddCNOT(1, 2)
		ex, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP})
		if err != nil {
			t.Fatal(err)
		}
		h, err := mp.MapWith(context.Background(), c, QX4(), Options{Method: MethodHeuristic, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if h.Cost < ex.Cost {
			t.Fatalf("seed %d: heuristic %d < exact %d", seed, h.Cost, ex.Cost)
		}
	}
}

func TestParseMethodAndStrings(t *testing.T) {
	for i, name := range methodNames {
		m := Method(i)
		if m.String() != name {
			t.Errorf("%d.String() = %q", i, m.String())
		}
		got, err := ParseMethod(name)
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method should fail")
	}
}

// TestMethodsMatchesRegistry pins the contract between the Method enum and
// the solver registry: the registry's canonical listing starts with the
// eight built-ins in constant order, so Method(i) ↔ Methods()[i].
func TestMethodsMatchesRegistry(t *testing.T) {
	reg := Methods()
	if len(reg) < len(methodNames) {
		t.Fatalf("registry lists %d methods, enum has %d", len(reg), len(methodNames))
	}
	for i, name := range methodNames {
		if reg[i] != name {
			t.Errorf("Methods()[%d] = %q, enum says %q", i, reg[i], name)
		}
	}
}

// TestParseMethodErrorListsValidNames: a bad -method flag must tell the
// user what the valid names are.
func TestParseMethodErrorListsValidNames(t *testing.T) {
	_, err := ParseMethod("bogus")
	if err == nil {
		t.Fatal("bogus method should fail")
	}
	for _, name := range Methods() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

func TestParseEngineRoundTrips(t *testing.T) {
	for _, e := range []Engine{EngineSAT, EngineDP} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEngine("z3"); err == nil {
		t.Error("unknown engine should fail")
	}
}

func TestNewArch(t *testing.T) {
	mp := newTestMapper(t)
	a, err := NewArch("tri", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit(3).AddCNOT(0, 1).AddCNOT(2, 1)
	res, err := mp.MapWith(context.Background(), c, a, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 4 {
		t.Errorf("cost = %d on fully-coupled triangle", res.Cost)
	}
}

func TestSATBudgetGracefulDegradation(t *testing.T) {
	mp := newTestMapper(t)
	c := Figure1a()
	// A hopeless budget must fail with a clear error, not a bogus
	// "unsatisfiable" claim.
	if _, err := mp.MapWith(context.Background(), c, QX4(), Options{SATMaxConflicts: 1}); err == nil ||
		!strings.Contains(err.Error(), "budget") {
		t.Errorf("tiny budget: err = %v, want budget-exhausted error", err)
	}
	// A budget generous enough for the whole descent completes the UNSAT
	// proof, so minimality IS established despite the budget — the flag
	// reports what the run proved, not what the config allowed.
	res, err := mp.MapWith(context.Background(), c, QX4(), Options{SATMaxConflicts: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Minimal {
		t.Error("budgeted run that completed its descent must report proven minimality")
	}
	if res.Cost != 4 {
		t.Errorf("cost %d, want the true minimum 4", res.Cost)
	}
	if res.Stats.SATEncodes != 1 {
		t.Errorf("SATEncodes = %d, want 1 (incremental descent)", res.Stats.SATEncodes)
	}
}

func TestMapWithOptimize(t *testing.T) {
	mp := newTestMapper(t)
	// A circuit with redundancy the mapper preserves but the optimizer
	// removes: back-to-back H pairs around a CNOT chain.
	c := NewCircuit(3).
		AddH(0).AddH(0). // cancels
		AddCNOT(0, 1).AddCNOT(1, 2).
		AddT(2).AddTdg(2) // cancels
	plain, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if optimized.GatesOptimizedAway < 4 {
		t.Errorf("optimized away %d gates, want ≥ 4", optimized.GatesOptimizedAway)
	}
	if optimized.TotalGates() >= plain.TotalGates() {
		t.Errorf("optimize did not shrink: %d vs %d", optimized.TotalGates(), plain.TotalGates())
	}
	// Both verified equivalent by Map itself (verification on).
}

func TestMapOnTokyoBidirectional(t *testing.T) {
	mp := newTestMapper(t)
	// Tokyo's couplings are bidirectional: direction switches are never
	// needed, so any mapping's cost is a multiple of 7.
	c := NewCircuit(4).
		AddCNOT(0, 1).AddCNOT(1, 0).AddCNOT(2, 3).AddCNOT(3, 2)
	res, err := mp.MapWith(context.Background(), c, Tokyo(), Options{Method: MethodExactSubsets, Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Errorf("switches = %d on bidirectional arch", res.Switches)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %d, want 0 (adjacent pairs exist)", res.Cost)
	}
}

func TestMapAStarMethod(t *testing.T) {
	mp := newTestMapper(t)
	res, err := mp.MapWith(context.Background(), Figure1a(), QX4(), Options{Method: MethodAStar, Lookahead: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < 4 {
		t.Errorf("A* cost %d below minimum 4", res.Cost)
	}
	if res.Minimal {
		t.Error("A* must not claim minimality")
	}
}

func TestDepthReporting(t *testing.T) {
	mp := newTestMapper(t)
	c := Figure1a()
	res, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapped.Depth() < c.Depth() {
		t.Errorf("mapped depth %d below original %d", res.Mapped.Depth(), c.Depth())
	}
	if res.Mapped.TwoQubitDepth() < c.TwoQubitDepth() {
		t.Errorf("mapped 2q depth shrank")
	}
}

func TestMapWithInitialLayout(t *testing.T) {
	mp := newTestMapper(t)
	c := NewCircuit(2).AddCNOT(0, 1)
	// Free: cost 0. Pinned to the reversed coupling direction: 4.
	free, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if free.Cost != 0 {
		t.Fatalf("free cost = %d", free.Cost)
	}
	pinned, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP, InitialLayout: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Cost != 4 {
		t.Errorf("pinned cost = %d, want 4", pinned.Cost)
	}
	if pinned.InitialLayout[0] != 0 || pinned.InitialLayout[1] != 1 {
		t.Errorf("layout not pinned: %v", pinned.InitialLayout)
	}
	// Heuristic honors the pin as its starting point.
	h, err := mp.MapWith(context.Background(), c, QX4(), Options{Method: MethodHeuristic, InitialLayout: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Cost != 0 {
		t.Errorf("heuristic pinned-to-good-layout cost = %d", h.Cost)
	}
	// Subsets reject the pin.
	if _, err := mp.MapWith(context.Background(), c, QX4(), Options{Method: MethodExactSubsets, InitialLayout: []int{0, 1}}); err == nil {
		t.Error("subsets + pin should fail")
	}
}

func TestMapSabreMethod(t *testing.T) {
	mp := newTestMapper(t)
	res, err := mp.MapWith(context.Background(), Figure1a(), QX4(), Options{Method: MethodSabre})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < 4 {
		t.Errorf("sabre cost %d below minimum", res.Cost)
	}
	if _, err := mp.MapWith(context.Background(), Figure1a(), QX4(), Options{Method: MethodSabre, InitialLayout: []int{0, 1, 2, 3}}); err == nil {
		t.Error("sabre + InitialLayout should fail")
	}
	// A* now honors pinned layouts.
	pinned, err := mp.MapWith(context.Background(), NewCircuit(2).AddCNOT(0, 1), QX4(),
		Options{Method: MethodAStar, InitialLayout: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Cost != 0 {
		t.Errorf("A* pinned-to-coupled-pair cost = %d", pinned.Cost)
	}
}

// TestMapPortfolio maps the running example in Portfolio mode: the DP
// engine answers with the minimum whatever Engine says, and a repeated
// call on the identical instance is served from the Mapper's cache.
func TestMapPortfolio(t *testing.T) {
	mp := newTestMapper(t)
	c := Figure1a()
	a := QX4()
	lone, err := mp.MapWith(context.Background(), c, a, Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	first, err := mp.MapWith(context.Background(), c, a, Options{Portfolio: true, Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cost != lone.Cost || first.Engine != EngineDP || first.Stats.Engine != "dp" {
		t.Errorf("portfolio cost %d engine %v (stats %q), want lone DP's %d on dp", first.Cost, first.Engine, first.Stats.Engine, lone.Cost)
	}
	if !first.Minimal {
		t.Error("portfolio result not flagged minimal")
	}
	second, err := mp.MapWith(context.Background(), c, a, Options{Portfolio: true, Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical instance missed the portfolio cache")
	}
	if second.Cost != first.Cost {
		t.Errorf("cached cost %d != first cost %d", second.Cost, first.Cost)
	}
}

// TestMapContextCancelled covers the public context plumbing end to end.
func TestMapContextCancelled(t *testing.T) {
	mp := newTestMapper(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {Portfolio: true}} {
		if _, err := mp.MapWith(ctx, Figure1a(), QX4(), opts); !errors.Is(err, context.Canceled) {
			t.Errorf("Portfolio=%v: err = %v, want context.Canceled", opts.Portfolio, err)
		}
	}
}

// TestStatsDescentCountersFlow: the SAT descent's BoundProbes/BoundJumps/
// LowerBound counters must surface in Result.Stats, and SATNoLowerBound
// must zero the reported seed without changing the cost.
func TestStatsDescentCountersFlow(t *testing.T) {
	mp := newTestMapper(t)
	c := NewCircuit(4)
	c.AddCNOT(0, 1)
	c.AddCNOT(2, 3)
	c.AddCNOT(0, 2)
	c.AddCNOT(1, 3)
	c.AddCNOT(0, 3)
	c.AddCNOT(1, 2)
	seeded, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Stats.BoundProbes == 0 {
		t.Error("SAT run reported no bound probes")
	}
	if seeded.Stats.LowerBound <= 0 {
		t.Errorf("K4 interactions on QX4 should have a positive lower bound, got %d", seeded.Stats.LowerBound)
	}
	off, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineSAT, SATNoLowerBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.LowerBound != 0 {
		t.Errorf("SATNoLowerBound run reported LowerBound = %d, want 0", off.Stats.LowerBound)
	}
	if off.Cost != seeded.Cost || !off.Minimal || !seeded.Minimal {
		t.Errorf("lower-bound seeding changed the outcome: %d/%v vs %d/%v",
			seeded.Cost, seeded.Minimal, off.Cost, off.Minimal)
	}
	if seeded.Stats.SATEncodes != 1 || off.Stats.SATEncodes != 1 {
		t.Errorf("encodes = %d/%d, want 1/1", seeded.Stats.SATEncodes, off.Stats.SATEncodes)
	}
}
