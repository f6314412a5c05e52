package portfolio

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/revlib"
)

var bg = context.Background()

func mkSkeleton(n int, pairs ...[2]int) *circuit.Skeleton {
	sk := &circuit.Skeleton{NumQubits: n}
	for i, p := range pairs {
		sk.Gates = append(sk.Gates, circuit.CNOTGate{Control: p[0], Target: p[1], Index: i})
	}
	return sk
}

// TestTable1Parity checks that the tiers are transparent on the paper's
// Table-1 suite: a miss returns exactly what a lone exact.Solve run
// returns (cost, frame mappings, engine and counters), writes it through,
// and the memory hit that follows serves the same answer.
func TestTable1Parity(t *testing.T) {
	a := arch.QX4()
	for _, b := range revlib.Suite() {
		if testing.Short() && b.CNOTs > 18 {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sk, err := circuit.ExtractSkeleton(b.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			eo := exact.Options{Engine: exact.EngineDP}
			want, err := exact.Solve(bg, sk, a, eo)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Exact: eo, Cache: NewCache(0)}
			for _, tier := range []string{"", TierMemory} {
				got, err := Solve(bg, sk, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Tier != tier || got.CacheHit != (tier != "") {
					t.Fatalf("served from tier %q (hit %v), want %q", got.Tier, got.CacheHit, tier)
				}
				if got.Cost != want.Cost || got.Engine != want.Engine || got.Counters != want.Counters ||
					!reflect.DeepEqual(got.Solution.FrameMappings, want.Solution.FrameMappings) {
					t.Errorf("tier %q: cost %d engine %s counters %+v, lone exact.Solve %d %s %+v (or frame mappings differ)",
						tier, got.Cost, got.Engine, got.Counters, want.Cost, want.Engine, want.Counters)
				}
			}
		})
	}
}

// TestSolveRunsConfiguredEngine: Solve runs exactly the configured engine
// and hands that engine's errors back unwrapped.
func TestSolveRunsConfiguredEngine(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{0, 2})
	for _, eng := range []exact.Engine{exact.EngineSAT, exact.EngineDP} {
		eo := exact.Options{Engine: eng}
		want, err := exact.Solve(bg, sk, a, eo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(bg, sk, a, Options{Exact: eo})
		if err != nil {
			t.Fatal(err)
		}
		if got.Engine != eng.String() || got.Cost != want.Cost {
			t.Errorf("%s: engine=%q cost=%d, want %q/%d", eng, got.Engine, got.Cost, eng, want.Cost)
		}
		if got.SATSolves != want.SATSolves || got.BoundProbes != want.BoundProbes {
			t.Errorf("%s: counters %+v differ from a lone exact.Solve %+v", eng, got.Counters, want.Counters)
		}
	}

	disc := arch.MustNew("disc", 4, []arch.Pair{{Control: 0, Target: 1}, {Control: 2, Target: 3}})
	for _, eng := range []exact.Engine{exact.EngineSAT, exact.EngineDP} {
		eo := exact.Options{Engine: eng}
		_, want := exact.Solve(bg, sk, disc, eo)
		_, got := Solve(bg, sk, disc, Options{Exact: eo})
		if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, exact.ErrUnsatisfiable) {
			t.Errorf("%s: error %v, want exact.Solve's own %v", eng, got, want)
		}
	}
}

// TestStrategyParity runs both engines through Solve under every §4.2
// restriction with the §4.1 subset optimization; each must reproduce the
// lone DP engine's restricted optimum.
func TestStrategyParity(t *testing.T) {
	a := arch.QX4()
	b, err := revlib.SuiteByName("ex-1_166")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(b.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []exact.Options{
		{Strategy: exact.StrategyAll, UseSubsets: true},
		{Strategy: exact.StrategyDisjoint, UseSubsets: true},
		{Strategy: exact.StrategyOdd, UseSubsets: true},
		{Strategy: exact.StrategyTriangle, UseSubsets: true},
	} {
		cfg := cfg
		t.Run(cfg.Strategy.String(), func(t *testing.T) {
			t.Parallel()
			cfg.Engine = exact.EngineDP
			want, err := exact.Solve(bg, sk, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []exact.Engine{exact.EngineSAT, exact.EngineDP} {
				cfg.Engine = eng
				got, err := Solve(bg, sk, a, Options{Exact: cfg})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost {
					t.Errorf("%s: portfolio cost = %d, lone DP engine = %d", eng, got.Cost, want.Cost)
				}
			}
		})
	}
}

func TestCacheHitMiss(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	cache := NewCache(8)

	first, err := Solve(bg, sk, a, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first solve reported a cache hit")
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 1 {
		t.Errorf("after first solve: hits=%d misses=%d, want 0/1", hits, misses)
	}

	second, err := Solve(bg, sk, a, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Tier != TierMemory {
		t.Errorf("second solve: CacheHit=%v Tier=%q, want a memory hit", second.CacheHit, second.Tier)
	}
	if second.Cost != first.Cost {
		t.Errorf("cached cost %d != solved cost %d", second.Cost, first.Cost)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}

	// A different strategy is a different instance.
	third, err := Solve(bg, sk, a, Options{Cache: cache, Exact: exact.Options{Strategy: exact.StrategyOdd}})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different strategy must not hit the cache")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", cache.Len())
	}
}

// TestCacheSkipsBudgetedRuns ensures conflict-budgeted (possibly
// non-minimal) results are never memoized.
func TestCacheSkipsBudgetedRuns(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	cache := NewCache(8)
	opts := Options{Cache: cache}
	opts.Exact.SAT.MaxConflicts = 1 << 20
	if _, err := Solve(bg, sk, a, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Errorf("budgeted run was cached (%d entries)", cache.Len())
	}
}

func TestCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	_, err := Solve(ctx, sk, arch.QX4(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadlineStopsRunningSolve cancels mid-solve on an instance large
// enough that the SAT engine is still encoding or searching, and requires
// Solve to return well within the test's patience (the encoder and the
// solver notice at their next context poll).
func TestDeadlineStopsRunningSolve(t *testing.T) {
	a := arch.Ring(6)
	sk := &circuit.Skeleton{NumQubits: 6}
	state := uint64(42)
	for i := 0; i < 60; i++ {
		state = state*2862933555777941757 + 3037000493
		c := int((state >> 33) % 6)
		t2 := (c + 1 + int((state>>13)%5)) % 6
		sk.Gates = append(sk.Gates, circuit.CNOTGate{Control: c, Target: t2, Index: i})
	}
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Solve(ctx, sk, a, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; want well under 10s", elapsed)
	}
}

func TestFingerprintDistinguishesInstances(t *testing.T) {
	qx4 := arch.QX4()
	sk1 := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	sk2 := mkSkeleton(3, [2]int{0, 1}, [2]int{2, 1}) // swapped control/target
	base := Fingerprint(sk1, qx4, exact.Options{})

	if got := Fingerprint(sk1, qx4, exact.Options{}); got != base {
		t.Error("fingerprint is not deterministic")
	}
	distinct := map[string]string{
		"gate direction": Fingerprint(sk2, qx4, exact.Options{}),
		"strategy":       Fingerprint(sk1, qx4, exact.Options{Strategy: exact.StrategyOdd}),
		"subsets":        Fingerprint(sk1, qx4, exact.Options{UseSubsets: true}),
		"initial pin":    Fingerprint(sk1, qx4, exact.Options{InitialMapping: []int{0, 1, 2}}),
		"architecture":   Fingerprint(sk1, arch.QX2(), exact.Options{}),
	}
	for what, fp := range distinct {
		if fp == base {
			t.Errorf("%s change did not alter the fingerprint", what)
		}
	}
	// The engine does not affect the solution.
	if got := Fingerprint(sk1, qx4, exact.Options{Engine: exact.EngineDP}); got != base {
		t.Error("the engine must not alter the fingerprint")
	}
}
