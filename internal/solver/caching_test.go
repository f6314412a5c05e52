package solver

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/portfolio"
	"repro/internal/revlib"
)

// memStore is an in-memory portfolio.ResultStore that counts writes.
type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[string(key)]
	return v, ok, nil
}

func (s *memStore) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[string(key)] = value
	s.puts++
	return nil
}

// starvedInstance is sized so that within a 100ms deadline neither exact
// engine answers (2000 gates on a 6-ring: the SAT encode alone takes far
// longer, the DP engine faces hundreds of 720-state frame transitions),
// while the ladder's heuristic rung maps it well inside its own budget.
func starvedInstance() (*circuit.Skeleton, *arch.Arch) {
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

// TestExactCachingPolicy pins which cache tier, if any, serves the second
// of two identical exact-family solves, over every combination the rule
// depends on: Portfolio mode on or off (the "race" subtest label, named
// after the engine race Portfolio mode once ran), a persistent store
// attached or not, a conflict budget, and a ladder-degraded answer. A
// result is memoized only when it is a full solve without a conflict
// budget, and only in Portfolio mode or when a store is attached: without
// either, the Config's memory cache is never touched.
func TestExactCachingPolicy(t *testing.T) {
	for _, race := range []bool{false, true} {
		for _, withStore := range []bool{false, true} {
			for _, budget := range []int64{0, 1 << 30} {
				for _, degraded := range []bool{false, true} {
					name := fmt.Sprintf("race=%v/store=%v/budget=%d/degraded=%v", race, withStore, budget, degraded)
					t.Run(name, func(t *testing.T) {
						cache := portfolio.NewCache(0)
						cfg := Config{Portfolio: race, Cache: cache, Ladder: true}
						cfg.SAT.MaxConflicts = budget
						disk := newMemStore()
						if withStore {
							cfg.Store = disk
						}
						sk, a := circuit.Figure1b(), arch.QX4()
						if degraded {
							sk, a = starvedInstance()
						}
						solve := func(cfg Config) *Plan {
							t.Helper()
							ctx := context.Background()
							if degraded {
								var cancel context.CancelFunc
								ctx, cancel = context.WithTimeout(ctx, 100*time.Millisecond)
								defer cancel()
							}
							s, err := New(NameExact, cfg)
							if err != nil {
								t.Fatal(err)
							}
							p, err := s.Solve(ctx, sk, a)
							if err != nil {
								t.Fatal(err)
							}
							if degraded != (p.Degradation != "") {
								t.Fatalf("degradation %q, want degraded=%v", p.Degradation, degraded)
							}
							return p
						}

						cacheable := !degraded && budget == 0
						want := ""
						if cacheable && (race || withStore) {
							want = portfolio.TierMemory
						}
						if first := solve(cfg); first.CacheHit {
							t.Fatalf("first solve served from tier %q", first.CacheTier)
						}
						second := solve(cfg)
						if second.CacheHit != (want != "") || second.CacheTier != want {
							t.Errorf("second solve: hit=%v tier=%q, want tier %q", second.CacheHit, second.CacheTier, want)
						}
						wantLen := 0
						if want != "" {
							wantLen = 1
						}
						if got := cache.Len(); got != wantLen {
							t.Errorf("memory tier holds %d entries, want %d", got, wantLen)
						}
						if wrote := disk.puts > 0; wrote != (withStore && cacheable) {
							t.Errorf("store writes=%d, want written=%v", disk.puts, withStore && cacheable)
						}
						if withStore && cacheable {
							// A fresh memory tier over the same store: the
							// persistent tier serves the third call.
							cfg.Cache = portfolio.NewCache(0)
							if third := solve(cfg); third.CacheTier != portfolio.TierDisk {
								t.Errorf("fresh memory tier over the store: tier %q, want %q", third.CacheTier, portfolio.TierDisk)
							}
						}
					})
				}
			}
		}
	}
}

// TestExactAnytimeAnswerNotCached covers the ladder's other degraded
// rung outside Portfolio mode: a SAT descent cut off by its deadline after a
// first model hands back that incumbent, which must reach neither tier.
// The deadline window between "no model yet" and "optimum proven" is found
// by binary search; the test skips only if it is too narrow to hit.
func TestExactAnytimeAnswerNotCached(t *testing.T) {
	bm, err := revlib.SuiteByName("3_17_13")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := circuit.ExtractSkeleton(bm.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.QX4()
	solve := func(d time.Duration) (*Plan, *portfolio.Cache, *memStore) {
		t.Helper()
		cache, disk := portfolio.NewCache(0), newMemStore()
		s, err := New(NameExact, Config{Cache: cache, Store: disk, Ladder: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		p, err := s.Solve(ctx, sk, a)
		if err != nil {
			t.Fatal(err)
		}
		return p, cache, disk
	}

	start := time.Now()
	if ref, _, _ := solve(0); ref.Degradation != "" {
		t.Fatalf("reference solve degraded to %q", ref.Degradation)
	}
	lo, hi := time.Duration(0), time.Since(start) // lo: no model yet, hi: proven
	for i := 0; i < 14; i++ {
		d := (lo + hi) / 2
		if d <= 0 {
			break
		}
		p, cache, disk := solve(d)
		switch p.Degradation {
		case portfolio.DegradationHeuristic:
			lo = d
		case "":
			hi = d
		default:
			if cache.Len() != 0 || disk.puts != 0 {
				t.Errorf("%s answer cached: memory entries %d, store writes %d", p.Degradation, cache.Len(), disk.puts)
			}
			return
		}
	}
	t.Skip("anytime window between first model and full proof too narrow to hit on this machine")
}
