package portfolio

import (
	"context"
	"errors"
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

// TestTable1Parity is the acceptance check: on the paper's Table-1 suite,
// the portfolio returns exactly the minimal cost of a lone exact engine for
// every instance, regardless of which engine happens to win the race.
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
			want, err := exact.Solve(bg, sk, a, exact.Options{Engine: exact.EngineDP})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Solve(bg, sk, a, Options{Race: true})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Errorf("portfolio cost = %d (winner %s), lone DP engine = %d", got.Cost, got.Winner, want.Cost)
			}
			if got.Winner != "sat" && got.Winner != "dp" {
				t.Errorf("winner = %q, want sat or dp", got.Winner)
			}
			if got.UpperBound > 0 && got.UpperBound < got.Cost {
				t.Errorf("heuristic upper bound %d below minimal cost %d", got.UpperBound, got.Cost)
			}
		})
	}
}

// TestRaceOffRunsConfiguredEngine: without the race, Solve runs exactly
// the configured engine with no bounding phase, reports it as the winner,
// and hands that engine's errors back unwrapped.
func TestRaceOffRunsConfiguredEngine(t *testing.T) {
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
		if got.Winner != eng.String() || got.Cost != want.Cost || got.UpperBound != 0 {
			t.Errorf("%s: winner=%q cost=%d bound=%d, want %q/%d/0", eng, got.Winner, got.Cost, got.UpperBound, eng, want.Cost)
		}
		if got.SATSolves != want.SATSolves || got.BoundProbes != want.BoundProbes {
			t.Errorf("%s: counters %+v differ from a lone exact.Solve %+v", eng, got.Counters, want.Counters)
		}
	}

	disc := arch.MustNew("disc", 4, []arch.Pair{{Control: 0, Target: 1}, {Control: 2, Target: 3}})
	_, want := exact.Solve(bg, sk, disc, exact.Options{})
	_, got := Solve(bg, sk, disc, Options{})
	if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, exact.ErrUnsatisfiable) {
		t.Errorf("race-off error %v, want exact.Solve's own %v", got, want)
	}
}

// TestStrategyParity races the engines under every §4.2 restriction and the
// §4.1 subset optimization; the portfolio must reproduce the lone engine's
// restricted optimum (the heuristic bound may be unsound under odd/triangle
// restrictions, exercising the bound-retry path).
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
			got, err := Solve(bg, sk, a, Options{Race: true, Exact: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Errorf("portfolio cost = %d, lone engine = %d", got.Cost, want.Cost)
			}
		})
	}
}

func TestCacheHitMiss(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	cache := NewCache(8)

	first, err := Solve(bg, sk, a, Options{Race: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first solve reported a cache hit")
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 1 {
		t.Errorf("after first solve: hits=%d misses=%d, want 0/1", hits, misses)
	}

	second, err := Solve(bg, sk, a, Options{Race: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Winner != "cache" {
		t.Errorf("second solve: CacheHit=%v Winner=%q, want hit from cache", second.CacheHit, second.Winner)
	}
	if second.Cost != first.Cost {
		t.Errorf("cached cost %d != solved cost %d", second.Cost, first.Cost)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}

	// A different strategy is a different instance.
	third, err := Solve(bg, sk, a, Options{Race: true, Cache: cache, Exact: exact.Options{Strategy: exact.StrategyOdd}})
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
	opts := Options{Race: true, Cache: cache}
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
	_, err := Solve(ctx, sk, arch.QX4(), Options{Race: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadlineStopsRunningSolve cancels mid-solve on an instance large
// enough that both engines are still working, and requires the portfolio to
// return well within the test's patience (the SAT solver notices at its
// next context poll, the DP engine at the next frame transition).
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
	_, err := Solve(ctx, sk, a, Options{Race: true})
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
	// Engine and parallelism do not affect the solution.
	if got := Fingerprint(sk1, qx4, exact.Options{Engine: exact.EngineDP, Parallel: true}); got != base {
		t.Error("engine/parallel options must not alter the fingerprint")
	}
}

// TestBudgetedRaceStaysMinimal guards the race arbitration: with a conflict
// budget the SAT engine may return a truncated best-effort model, which
// must never outrank the DP oracle's guaranteed minimum — only a run that
// PROVED its minimum may win the race.
func TestBudgetedRaceStaysMinimal(t *testing.T) {
	a := arch.QX4()
	b, err := revlib.SuiteByName("4gt13_92")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(b.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Solve(bg, sk, a, exact.Options{Engine: exact.EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 1 << 10} {
		opts := Options{Race: true}
		opts.Exact.SAT.MaxConflicts = budget
		got, err := Solve(bg, sk, a, opts)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got.Cost != want.Cost {
			t.Errorf("budget %d: cost = %d (winner %s), want minimal %d", budget, got.Cost, got.Winner, want.Cost)
		}
		if !got.Minimal {
			t.Errorf("budget %d: winner %q result not proven minimal (truncated SAT must not win while DP succeeds)", budget, got.Winner)
		}
	}
}

// TestExternalUpperBound supplies a caller-provided bound and checks it is
// used verbatim (no bounding phase) without affecting minimality.
func TestExternalUpperBound(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{0, 2})
	want, err := exact.Solve(bg, sk, a, exact.Options{Engine: exact.EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(bg, sk, a, Options{Race: true, UpperBound: want.Cost + 21})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("cost = %d, want %d", got.Cost, want.Cost)
	}
	if got.UpperBound != want.Cost+21 {
		t.Errorf("UpperBound = %d, want caller's %d", got.UpperBound, want.Cost+21)
	}
	// An undercutting (unsound) external bound must be survived via the
	// unbounded retry, not reported as unsatisfiable.
	if want.Cost > 1 {
		got, err = Solve(bg, sk, a, Options{Race: true, UpperBound: want.Cost - 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost {
			t.Errorf("undercut bound: cost = %d, want %d", got.Cost, want.Cost)
		}
	}
}
