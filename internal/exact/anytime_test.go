package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/revlib"
)

// TestAnytimeCancelNeverSoftened: anytime mode softens deadline expiry
// only. A caller-initiated cancel must keep erroring with context.Canceled
// — single instance and §4.1 fan-out alike — so an operator abort never
// comes back disguised as a degraded answer.
func TestAnytimeCancelNeverSoftened(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err := Solve(ctx, circuit.Figure1b(), arch.QX4(),
		Options{Engine: EngineSAT, SAT: SATOptions{Anytime: true}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("single instance: err = %v, want context.Canceled", err)
	}
	_, err = Solve(ctx, randomSkeleton(3, 4, 12), arch.QX5(),
		Options{Engine: EngineSAT, UseSubsets: true, SAT: SATOptions{Anytime: true}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("subset fan-out: err = %v, want context.Canceled", err)
	}
}

// TestAnytimeBudgetBracketsOptimum: a conflict budget that truncates the
// descent after a first model yields a Degraded incumbent whose
// [Cost−BoundGap, Cost] bracket contains the true optimum (proven by the
// DP oracle) and whose solution still materializes into valid ops.
func TestAnytimeBudgetBracketsOptimum(t *testing.T) {
	a := arch.QX4()
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		sk := randomSkeleton(seed, 4, 10)
		ref, err := Solve(bg, sk, a, Options{Engine: EngineDP})
		if err != nil {
			t.Fatal(err)
		}
		for budget := int64(1); budget <= 1<<14; budget *= 2 {
			r, err := Solve(bg, sk, a, Options{Engine: EngineSAT,
				SAT: SATOptions{MaxConflicts: budget, Anytime: true}})
			if err != nil {
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatalf("seed %d budget %d: err = %v, want ErrBudgetExhausted", seed, budget, err)
				}
				continue // no model before exhaustion; try a bigger budget
			}
			if r.Minimal {
				if r.Degraded {
					t.Errorf("seed %d budget %d: proven-minimal result marked degraded", seed, budget)
				}
				if r.Cost != ref.Cost {
					t.Errorf("seed %d budget %d: minimal cost %d != oracle %d", seed, budget, r.Cost, ref.Cost)
				}
				break // larger budgets only finish the proof sooner
			}
			found = true
			if !r.Degraded {
				t.Errorf("seed %d budget %d: truncated result not marked Degraded", seed, budget)
			}
			if r.BoundGap < 0 {
				t.Errorf("seed %d budget %d: negative BoundGap %d", seed, budget, r.BoundGap)
			}
			if r.Cost < ref.Cost {
				t.Errorf("seed %d budget %d: incumbent cost %d undercuts the optimum %d", seed, budget, r.Cost, ref.Cost)
			}
			if r.Cost-r.BoundGap > ref.Cost {
				t.Errorf("seed %d budget %d: bracket [%d, %d] excludes the optimum %d",
					seed, budget, r.Cost-r.BoundGap, r.Cost, ref.Cost)
			}
			if _, err := r.Ops(sk); err != nil {
				t.Errorf("seed %d budget %d: degraded result does not materialize: %v", seed, budget, err)
			}
			break
		}
	}
	if !found {
		t.Skip("no budget truncated the descent after a first model on this corpus")
	}
}

// TestAnytimeDeadlineIncumbent is the anytime acceptance check on a real
// Table-1 instance: between "too short for any model" (an error) and "long
// enough for the full proof" (the known minimal cost) there is a window
// where the deadline fires mid-descent and the engine must hand back its
// incumbent — Degraded, non-minimal, bracket containing the optimum —
// instead of erroring. The window's location is machine-dependent, so the
// test binary-searches the deadline and verifies every run it makes
// against the trichotomy; it only skips if the window is unobservably
// narrow on this machine.
func TestAnytimeDeadlineIncumbent(t *testing.T) {
	bm, err := revlib.SuiteByName("3_17_13")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.QX4()

	start := time.Now()
	ref, err := Solve(bg, sk, a, Options{Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if !ref.Minimal {
		t.Fatalf("unbounded reference run not minimal (cost %d)", ref.Cost)
	}

	lo, hi := time.Duration(0), full // invariant: lo errors, hi completes
	for i := 0; i < 14; i++ {
		d := (lo + hi) / 2
		if d <= 0 {
			break
		}
		ctx, cancel := context.WithTimeout(bg, d)
		r, err := Solve(ctx, sk, a, Options{Engine: EngineSAT, SAT: SATOptions{Anytime: true}})
		cancel()
		switch {
		case err != nil:
			// Too short for even one model: exactly the historical failure
			// mode, still correct when there is nothing to salvage.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline %v: err = %v, want context.DeadlineExceeded", d, err)
			}
			lo = d
		case r.Minimal:
			if r.Cost != ref.Cost {
				t.Fatalf("deadline %v: minimal cost %d != reference %d", d, r.Cost, ref.Cost)
			}
			hi = d
		default:
			// The anytime window: a valid incumbent under a blown deadline.
			if !r.Degraded {
				t.Errorf("deadline %v: non-minimal deadline result not marked Degraded", d)
			}
			if r.Cost < ref.Cost {
				t.Errorf("deadline %v: incumbent cost %d undercuts the optimum %d", d, r.Cost, ref.Cost)
			}
			if r.Cost-r.BoundGap > ref.Cost {
				t.Errorf("deadline %v: bracket [%d, %d] excludes the optimum %d",
					d, r.Cost-r.BoundGap, r.Cost, ref.Cost)
			}
			if _, err := r.Ops(sk); err != nil {
				t.Errorf("deadline %v: degraded result does not materialize: %v", d, err)
			}
			return
		}
	}
	t.Skip("anytime window between first model and full proof too narrow to hit on this machine")
}

// TestSubsetFanoutExhaustionKeepsIncumbent is the §4.1 best-effort
// aggregation regression: when the family deadline expires mid-fan-out
// after some subset already produced a mapping, the fan-out must aggregate
// that incumbent into a Degraded result instead of discarding it —
// exhaustion on one subset must never kill the whole family. Like the
// deadline test above, the window is found by binary search.
func TestSubsetFanoutExhaustionKeepsIncumbent(t *testing.T) {
	a := arch.QX5()
	sk := randomSkeleton(11, 4, 14)

	start := time.Now()
	ref, err := Solve(bg, sk, a, Options{Engine: EngineSAT, UseSubsets: true})
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	lo, hi := time.Duration(0), full
	for i := 0; i < 14; i++ {
		d := (lo + hi) / 2
		if d <= 0 {
			break
		}
		ctx, cancel := context.WithTimeout(bg, d)
		r, err := Solve(ctx, sk, a, Options{Engine: EngineSAT, UseSubsets: true, SAT: SATOptions{Anytime: true}})
		cancel()
		switch {
		case err != nil:
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("deadline %v: err = %v, want deadline/budget exhaustion", d, err)
			}
			lo = d
		case r.Minimal:
			if r.Cost != ref.Cost {
				t.Fatalf("deadline %v: minimal cost %d != reference %d", d, r.Cost, ref.Cost)
			}
			hi = d
		default:
			if !r.Degraded {
				t.Errorf("deadline %v: non-minimal fan-out result not marked Degraded", d)
			}
			if r.Cost < ref.Cost {
				t.Errorf("deadline %v: family incumbent %d undercuts the fan-out optimum %d", d, r.Cost, ref.Cost)
			}
			if _, err := r.Ops(sk); err != nil {
				t.Errorf("deadline %v: degraded fan-out result does not materialize: %v", d, err)
			}
			return
		}
	}
	t.Skip("fan-out anytime window too narrow to hit on this machine")
}
