// Package portfolio is the single entry point of the exact solving
// family. A Solve call
//
//  1. consults the result tiers — an optional in-process LRU (Cache) over
//     an optional persistent store (Store) — keyed by a canonical
//     fingerprint of the instance (skeleton, architecture and cost model,
//     strategy, subsets, pin);
//  2. on a miss runs the configured engine (Options.Exact.Engine) through
//     exact.Solve, on the caller's goroutine, and hands its errors back
//     unwrapped;
//  3. under Options.Ladder, softens a deadline or conflict-budget
//     exhaustion into the SAT descent's anytime incumbent or, failing
//     that, a heuristic plan (ladder.go); and
//  4. writes full answers of unbudgeted runs through both tiers. Degraded
//     answers are never cached.
//
// The engine choice belongs to the caller: solver.Config.Portfolio picks
// the DP engine, which solves every instance the SAT encoder accepts (at
// most 6 physical qubits, so at most 720 mappings) far inside its own
// 4096-state cap.
package portfolio

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
	"repro/internal/heuristic"
)

// Options configures a portfolio Solve.
type Options struct {
	// Exact carries the instance options: Engine, Strategy, UseSubsets,
	// InitialMapping and SAT tuning.
	Exact exact.Options
	// Seed seeds the ladder's heuristic rung.
	Seed int64
	// Cache, when non-nil, memoizes results across Solve calls. Only
	// full answers of runs without a conflict budget are cached.
	Cache *Cache
	// Store, when non-nil, is the persistent tier under the Cache: misses
	// fall through to it (hits are promoted into the Cache) and solved
	// results are written through, so identical instances are served from
	// disk across process restarts. Subject to the same cacheability rule
	// as the Cache.
	Store ResultStore
	// Ladder enables the deadline-aware degradation ladder. Rung 1 is the
	// normal exact solve. Rung 2 is the anytime incumbent: the SAT descent
	// runs with exact.SATOptions.Anytime, so a deadline that expires after
	// a model was found returns that model as a valid non-minimal result
	// (Result.Degradation "anytime"); the DP engine has no incumbent, so
	// it goes straight to rung 3. Rung 3, when even that fails on a
	// deadline or conflict-budget exhaustion, is a heuristic plan — A*
	// first, the stochastic mapper as backup — priced under the
	// architecture's active cost model (Result.Degradation "heuristic",
	// Result.Heuristic set, Result.Result nil). With generous deadlines
	// the ladder never engages and results are bit-identical to a run
	// without it. Degraded results are never written to the caches.
	Ladder bool
}

// Result is the outcome of a portfolio Solve.
type Result struct {
	// Result is the exact solution (shared with the cache when caching is
	// enabled; treat as immutable).
	*exact.Result
	// Degradation names the ladder rung that produced the result: "" for
	// a full exact solve or cache hit, DegradationAnytime for a truncated
	// descent's incumbent, DegradationHeuristic for the heuristic
	// fallback.
	Degradation string
	// Heuristic is the fallback plan when Degradation is
	// DegradationHeuristic; Result is nil in that case (and only then).
	Heuristic *heuristic.Result
	// CacheHit reports whether the result was served from the cache;
	// Tier names the serving tier (TierMemory or TierDisk, "" on a solve).
	CacheHit bool
	Tier     string
	// Runtime is the wall-clock time of this Solve call (nearly zero on
	// cache hits).
	Runtime time.Duration
}

// Solve maps the skeleton to the architecture with the configured exact
// engine behind the result tiers. The returned result is minimal exactly
// when a lone exact.Solve run with the same options would be. Cancelling
// the context aborts the engine promptly; Solve then returns an error
// wrapping ctx.Err().
func Solve(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts Options) (*Result, error) {
	start := time.Now()
	if sk == nil || sk.Len() == 0 {
		return nil, fmt.Errorf("portfolio: circuit has no CNOT gates; nothing to map")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("portfolio: solve canceled: %w", err)
	}

	if opts.Ladder {
		// Rung 2 of the ladder lives inside the SAT descent: keep the
		// incumbent on deadline expiry instead of erroring.
		opts.Exact.SAT.Anytime = true
	}

	// Conflict-budgeted runs may return non-minimal best-effort results,
	// which must never be memoized as if they were the instance's optimum.
	tiers := Tiered{Mem: opts.Cache, Disk: opts.Store}
	cacheable := tiers.Enabled() && opts.Exact.SAT.MaxConflicts == 0
	var key string
	if cacheable {
		key = Fingerprint(sk, a, opts.Exact)
		// A hit that does not fit the request is a miss: the solve below
		// overwrites it in both tiers.
		if cached, tier, ok := tiers.Lookup(key); ok && fits(cached, sk, a) {
			cp := *cached
			return &Result{Result: &cp, CacheHit: true, Tier: tier, Runtime: time.Since(start)}, nil
		}
	}

	res, err := exact.Solve(ctx, sk, a, opts.Exact)
	if err != nil {
		if opts.Ladder && Exhausted(err) {
			if h, herr := HeuristicFallback(ctx, sk, a, opts.Seed, opts.Exact.InitialMapping); herr == nil {
				return &Result{Degradation: DegradationHeuristic, Heuristic: h, Runtime: time.Since(start)}, nil
			}
			// No rung left; surface the exhaustion itself, not the
			// fallback's failure — the caller retries against the former.
		}
		return nil, err
	}
	// Degraded (anytime) results are valid but non-minimal: serve them,
	// never memoize them — a later generous run must not read a truncated
	// cost back as the optimum.
	degradation := ""
	if res.Degraded {
		degradation = DegradationAnytime
	} else if cacheable {
		tiers.Store(key, res)
	}
	cp := *res
	return &Result{Result: &cp, Degradation: degradation, Runtime: time.Since(start)}, nil
}

// fits reports whether a cached result can answer the instance: its
// solution places every skeleton gate and maps every logical qubit, and
// its working architecture lies inside the request's. DecodeResult checks
// a record against itself; this checks it against the request, so that a
// record stored under the wrong key, well formed but of another instance,
// is re-solved instead of indexing out of range in Result.Ops on every
// request for the instance.
func fits(r *exact.Result, sk *circuit.Skeleton, a *arch.Arch) bool {
	sol := r.Solution
	if len(sol.GateFrame) != sk.Len() || len(sol.Switched) != sk.Len() {
		return false
	}
	for _, mp := range sol.FrameMappings {
		if len(mp) != sk.NumQubits {
			return false
		}
	}
	m := r.WorkArch.NumQubits()
	if r.SubsetBack == nil {
		return m == a.NumQubits()
	}
	for _, q := range r.SubsetBack {
		if q >= a.NumQubits() {
			return false
		}
	}
	return m <= a.NumQubits()
}
