package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro"
	"repro/internal/circuit"
	"repro/internal/encoder"
	"repro/internal/exact"
)

// references holds the DP optimum of every exact-family input, computed by
// the benchmark itself and never by the engine under test.
type references struct {
	mu  sync.Mutex
	opt map[string]*exact.Result
}

func newReferences() *references { return &references{opt: map[string]*exact.Result{}} }

// optimum returns the request's DP optimum: exact.SolveDP on the device,
// or for exact-subsets the cheapest SolveDP over the device's connected
// subsets of the circuit's width. The result's WorkArch is the device (or
// subset) the optimum was found on.
func (r *references) optimum(ctx context.Context, req *request) (*exact.Result, error) {
	r.mu.Lock()
	res, ok := r.opt[req.key]
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	res, err := solveDP(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("DP reference for %s: %w", req.key, err)
	}
	r.mu.Lock()
	r.opt[req.key] = res
	r.mu.Unlock()
	return res, nil
}

func solveDP(ctx context.Context, req *request) (*exact.Result, error) {
	sk, err := circuit.ExtractSkeleton(req.circ)
	if err != nil {
		return nil, err
	}
	a := req.arch
	if req.opts.Method != qxmap.MethodExactSubsets {
		return exact.SolveDP(ctx, encoder.Problem{Skeleton: sk, Arch: a})
	}
	var best *exact.Result
	for _, sub := range a.ConnectedSubsets(sk.NumQubits) {
		restricted, _ := a.Restrict(sub)
		res, err := exact.SolveDP(ctx, encoder.Problem{Skeleton: sk, Arch: restricted})
		if err != nil {
			if errors.Is(err, exact.ErrUnsatisfiable) {
				continue
			}
			return nil, err
		}
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no connected %d-subset of %s admits a mapping", sk.NumQubits, a)
	}
	return best, nil
}

// check runs the outside checks on every answered sample and marks the
// wrong ones. It returns the first few failures as notes.
func (s *session) check(ctx context.Context, samples []*sample) ([]string, error) {
	var notes []string
	firstCost := map[string]int{}
	for _, sm := range samples {
		if sm.err != nil {
			continue
		}
		if err := s.checkOne(ctx, sm); err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			sm.bad = err
		}
		if sm.bad == nil {
			if c, seen := firstCost[sm.req.key]; seen && c != sm.res.Cost {
				sm.bad = fmt.Errorf("repeated request returned cost %d, first %d", sm.res.Cost, c)
			} else if !seen {
				firstCost[sm.req.key] = sm.res.Cost
			}
		}
		if sm.bad != nil && len(notes) < 10 {
			notes = append(notes, fmt.Sprintf("check failed: request %d (%s): %v", sm.id, sm.req.key, sm.bad))
		}
	}
	return notes, nil
}

// checkOne checks one answer: every two-qubit gate on an allowed
// (control, target) pair, Cost = 7·Swaps + 4·Switches, and for exact
// methods the cost against the DP optimum — equal for a full answer,
// bracketed by BoundGap for an anytime one, no better for a heuristic
// fallback.
func (s *session) checkOne(ctx context.Context, sm *sample) error {
	res, r := sm.res, sm.req
	for _, g := range res.Mapped.Gates() {
		switch {
		case g.Arity() < 2:
		case g.Kind == circuit.KindCNOT:
			if !r.arch.Allows(g.Control(), g.Target()) {
				return fmt.Errorf("CNOT %d→%d is not an allowed pair of %s", g.Control(), g.Target(), r.arch.Name())
			}
		default:
			return fmt.Errorf("mapped circuit holds %s, not an elementary gate", g)
		}
	}
	if want := 7*res.Swaps + 4*res.Switches; res.Cost != want {
		return fmt.Errorf("cost %d ≠ 7·%d swaps + 4·%d switches = %d", res.Cost, res.Swaps, res.Switches, want)
	}
	if !r.exactFamily() {
		return nil
	}
	ref, err := s.refs.optimum(ctx, r)
	if err != nil {
		return err
	}
	opt := ref.Cost
	switch res.Stats.Degradation {
	case "":
		if res.Cost != opt {
			return fmt.Errorf("exact cost %d ≠ DP optimum %d", res.Cost, opt)
		}
	case "anytime":
		if res.Cost-res.Stats.BoundGap > opt || opt > res.Cost {
			return fmt.Errorf("anytime cost %d with gap %d does not bracket DP optimum %d", res.Cost, res.Stats.BoundGap, opt)
		}
	case "heuristic":
		if res.Cost < opt {
			return fmt.Errorf("heuristic fallback cost %d beats DP optimum %d", res.Cost, opt)
		}
	default:
		return fmt.Errorf("unknown degradation %q", res.Stats.Degradation)
	}
	return nil
}

// errRepeatMismatch marks a run whose deterministic counts differ from an
// earlier run of the same binary, workload and seed.
var errRepeatMismatch = errors.New("repeat check")

// repeatCounts are the metrics that must be identical across runs of one
// seed: they count work and answers, not time.
var repeatCounts = []string{
	"added_gates", "emitted_gates", "minimal_ratio", "success_ratio",
	"sat.conflicts", "exact.bound_probes",
	"portfolio.rung_full", "portfolio.rung_anytime", "portfolio.rung_heuristic",
}

// checkRepeat compares the run's repeat counts with those recorded by
// earlier runs of the same binary, workload and seed (in the work
// directory), then records any count not seen before.
func checkRepeat(cfg config, rep *report) error {
	bin, err := binaryDigest()
	if err != nil {
		return err
	}
	tag := cfg.workload
	if cfg.small {
		tag += "-small"
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("repeat-%s-%d-%s.json", tag, cfg.seed, bin[:16]))
	seen := map[string]float64{}
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &seen); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("reading repeat record: %w", err)
	}
	var diffs []string
	changed := false
	for _, name := range repeatCounts {
		m, ok := rep.Metrics[name]
		if !ok {
			continue
		}
		if old, ok := seen[name]; ok {
			if math.Abs(old-m.Value) > 1e-12 {
				diffs = append(diffs, fmt.Sprintf("%s %v, earlier %v", name, m.Value, old))
			}
			continue
		}
		seen[name] = m.Value
		changed = true
	}
	if changed {
		data, err := json.Marshal(seen)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("writing repeat record: %w", err)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("%w: counts differ from an earlier run of seed %d: %v", errRepeatMismatch, cfg.seed, diffs)
	}
	return nil
}

// binaryDigest identifies the running program, so records of an earlier
// build never judge a later one.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("reading the benchmark binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("reading the benchmark binary: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
