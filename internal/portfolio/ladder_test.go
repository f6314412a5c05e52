package portfolio

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
)

// flakyStore wraps a mapStore and fails the next N gets/puts before
// letting the real operation through — the shape of a transient I/O
// stall, as opposed to mapStore.failGets which fails forever.
type flakyStore struct {
	mu           sync.Mutex
	inner        *mapStore
	failGetsLeft int
	failPutsLeft int
}

func (s *flakyStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	fail := s.failGetsLeft > 0
	if fail {
		s.failGetsLeft--
	}
	s.mu.Unlock()
	if fail {
		return nil, false, errors.New("injected transient get failure")
	}
	return s.inner.Get(key)
}

func (s *flakyStore) Put(key, value []byte) error {
	s.mu.Lock()
	fail := s.failPutsLeft > 0
	if fail {
		s.failPutsLeft--
	}
	s.mu.Unlock()
	if fail {
		return errors.New("injected transient put failure")
	}
	return s.inner.Put(key, value)
}

// shrinkRetryBackoff makes the store retry loop effectively instant for
// the duration of one test.
func shrinkRetryBackoff(t *testing.T) {
	t.Helper()
	oldBase := storeRetryBase
	storeRetryBase = time.Microsecond
	t.Cleanup(func() { storeRetryBase = oldBase })
}

// TestRetryStoreRecoversTransient: a persistent-tier failure that clears
// within the retry budget must end in a hit (Get) or a durable record
// (Put); one that outlasts the budget stays a miss / dropped write with
// no error escaping.
func TestRetryStoreRecoversTransient(t *testing.T) {
	shrinkRetryBackoff(t)
	r, a := solveOnce(t)
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	fp := Fingerprint(sk, a, exact.Options{})
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}

	// Get: two failures then success — within the 3-attempt budget.
	inner := newMapStore()
	if err := inner.Put(StoreKey(fp), data); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyStore{inner: inner, failGetsLeft: storeAttempts - 1}
	if _, tier, ok := (Tiered{Disk: flaky}).Lookup(fp); !ok || tier != TierDisk {
		t.Errorf("lookup through %d transient failures: ok=%v tier=%q, want a disk hit", storeAttempts-1, ok, tier)
	}

	// Get: failures outlasting the budget read as a clean miss.
	flaky = &flakyStore{inner: inner, failGetsLeft: storeAttempts}
	if _, _, ok := (Tiered{Disk: flaky}).Lookup(fp); ok {
		t.Error("lookup hit through more failures than the retry budget")
	}

	// Put: transient failures within budget still land the record.
	flaky = &flakyStore{inner: newMapStore(), failPutsLeft: storeAttempts - 1}
	(Tiered{Disk: flaky}).Store(fp, r)
	if _, ok := flaky.inner.m[string(StoreKey(fp))]; !ok {
		t.Error("write dropped despite retries within budget")
	}

	// Put: exhaustion drops the write silently (a cache write is best
	// effort; the result was already served).
	flaky = &flakyStore{inner: newMapStore(), failPutsLeft: storeAttempts}
	(Tiered{Disk: flaky}).Store(fp, r)
	if len(flaky.inner.m) != 0 {
		t.Error("write landed despite failures outlasting the retry budget")
	}
}

// ladderSkeleton builds an instance sized so that within a ~100ms deadline
// NEITHER exact engine can answer: encoding its 2000 gates alone costs the
// SAT engine far more (the cancellation tests calibrate 60 gates past
// 30ms), and the DP engine faces hundreds of O(720²) frame transitions.
// The heuristic rung, running per layer, maps it comfortably inside its
// own 2s budget — exactly the regime the ladder exists for.
func ladderSkeleton() (*circuit.Skeleton, *arch.Arch) {
	sk := &circuit.Skeleton{NumQubits: 6}
	state := uint64(42)
	for i := 0; i < 2000; i++ {
		state = state*2862933555777941757 + 3037000493
		c := int((state >> 33) % 6)
		state = state*2862933555777941757 + 3037000493
		tg := int((state >> 33) % 6)
		if c == tg {
			tg = (tg + 1) % 6
		}
		sk.Gates = append(sk.Gates, circuit.CNOTGate{Control: c, Target: tg, Index: i})
	}
	return sk, arch.Ring(6)
}

// ladderCtx returns a context whose deadline starves both exact engines on
// the ladderSkeleton instance.
func ladderCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

// TestLadderHeuristicFallback starves either engine of its deadline. The
// DP engine, which Portfolio mode runs, keeps no anytime incumbent, so
// under the ladder it too lands on the heuristic rung.
func TestLadderHeuristicFallback(t *testing.T) {
	sk, a := ladderSkeleton()
	for _, eng := range []exact.Engine{exact.EngineSAT, exact.EngineDP} {
		opts := Options{Exact: exact.Options{Engine: eng}}

		// Without the ladder the deadline surfaces as an exhaustion error.
		_, err := Solve(ladderCtx(t), sk, a, opts)
		if err == nil {
			t.Fatalf("%s: expected the engine to fail without the ladder", eng)
		}
		if !Exhausted(err) {
			t.Fatalf("%s: engine failure %v is not recognized as exhaustion", eng, err)
		}

		opts.Ladder = true
		res, err := Solve(ladderCtx(t), sk, a, opts)
		if err != nil {
			t.Fatalf("%s: ladder did not soften the exhaustion: %v", eng, err)
		}
		if res.Degradation != DegradationHeuristic {
			t.Errorf("%s: degradation=%q, want %q", eng, res.Degradation, DegradationHeuristic)
		}
		if res.Heuristic == nil || res.Result != nil {
			t.Fatalf("%s: heuristic rung must set Heuristic and leave Result nil (got %v/%v)", eng, res.Heuristic, res.Result)
		}
		if len(res.Heuristic.Ops) == 0 {
			t.Errorf("%s: heuristic fallback produced no ops for a non-empty circuit", eng)
		}
	}
}

// TestLadderNeverSoftensRealFailures: unsatisfiable instances and
// caller-initiated cancels are genuine failures — the ladder must let
// them through untouched rather than masking them with a heuristic plan.
func TestLadderNeverSoftensRealFailures(t *testing.T) {
	disc := arch.MustNew("disc", 4, []arch.Pair{{Control: 0, Target: 1}, {Control: 2, Target: 3}})
	sk := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2})
	_, err := Solve(bg, sk, disc, Options{Ladder: true})
	if !errors.Is(err, exact.ErrUnsatisfiable) {
		t.Errorf("unsatisfiable instance under the ladder: err = %v, want ErrUnsatisfiable", err)
	}
}

// TestLadderDegradedNotCached: a ladder answer (here the heuristic rung)
// must never be memoized — a later generous run of the same fingerprint
// has to solve for real, not read back a degraded answer as the optimum.
func TestLadderDegradedNotCached(t *testing.T) {
	sk, a := ladderSkeleton()
	opts := Options{Ladder: true, Cache: NewCache(0)}
	disk := newMapStore()
	opts.Store = disk

	res, err := Solve(ladderCtx(t), sk, a, opts)
	if err != nil || res.Degradation != DegradationHeuristic {
		t.Fatalf("res=%+v err=%v, want a heuristic-rung answer", res, err)
	}
	fp := Fingerprint(sk, a, opts.Exact)
	if _, ok := opts.Cache.Get(fp); ok {
		t.Error("degraded answer memoized in the memory tier")
	}
	if len(disk.m) != 0 {
		t.Error("degraded answer written through to the persistent tier")
	}
}
