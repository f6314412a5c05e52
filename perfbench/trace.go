package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/encoder"
	"repro/internal/exact"
	"repro/internal/heuristic"
	"repro/internal/perm"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/verify"
)

// span is one call the benchmark made into a layer, or one pipeline stage
// of a map call as the pipeline reported it.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root
	Name   string           `json:"name"`
	Req    int              `json:"req"` // request id
	Start  float64          `json:"start_ms"`
	End    float64          `json:"end_ms"`
	Self   float64          `json:"self_ms"` // duration minus child spans
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; write saves them at the end of the run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, req int, start, end time.Time, counts map[string]int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch)), Counts: counts,
	})
	return len(t.spans)
}

// open starts a span whose end close sets.
func (t *tracer) open(parent int, name string, req int) int {
	now := time.Now()
	return t.add(parent, name, req, now, now, nil)
}

func (t *tracer) close(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = ms(time.Since(t.epoch))
}

// timed runs f as a child span of parent and returns its duration.
func (t *tracer) timed(parent int, name string, req int, f func() map[string]int64) time.Duration {
	start := time.Now()
	counts := f()
	end := time.Now()
	t.add(parent, name, req, start, end, counts)
	return end.Sub(start)
}

// request records a sync request: its parse, its map call with the
// pipeline's own stage times as children, and its JSON encoding.
func (t *tracer) request(sm *sample, mapStart, mapEnd time.Time) {
	root := t.add(0, "request", sm.id, sm.start, sm.start.Add(sm.lat), nil)
	if sm.req.qasm != "" {
		t.add(root, "qasm.parse", sm.id, sm.start, sm.start.Add(sm.parse), nil)
	}
	id := t.add(root, "qxmap.map", sm.id, mapStart, mapEnd, resultCounts(sm.res))
	t.stages(id, sm, mapStart)
	if sm.encode > 0 {
		t.add(root, "qxmap.json", sm.id, mapEnd, mapEnd.Add(sm.encode), nil)
	}
}

// job records an async job: its queue wait, then its map call.
func (t *tracer) job(sm *sample) {
	root := t.add(0, "request", sm.id, sm.start, sm.start.Add(sm.lat), nil)
	ran := sm.start.Add(sm.queued)
	t.add(root, "qxmap.queue", sm.id, sm.start, ran, nil)
	id := t.add(root, "qxmap.map", sm.id, ran, sm.start.Add(sm.lat), resultCounts(sm.res))
	t.stages(id, sm, ran)
}

// stages lays the pipeline's stage times out in order from start.
func (t *tracer) stages(parent int, sm *sample, start time.Time) {
	if sm.res == nil {
		return
	}
	st := sm.res.Stats
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"qxmap.skeleton", st.SkeletonTime},
		{"qxmap.solve", st.SolveTime},
		{"qxmap.materialize", st.MaterializeTime},
		{"qxmap.verify", st.VerifyTime},
	} {
		t.add(parent, s.name, sm.id, start, start.Add(s.d), nil)
		start = start.Add(s.d)
	}
}

func resultCounts(res *qxmap.Result) map[string]int64 {
	if res == nil {
		return nil
	}
	return map[string]int64{
		"cost":          int64(res.Cost),
		"sat_conflicts": res.Stats.SATConflicts,
		"bound_probes":  int64(res.Stats.BoundProbes),
		"lower_bound":   int64(res.Stats.LowerBound),
	}
}

// write computes each span's self time and saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.Self = s.End - s.Start - child[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing the trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing the trace: %w", err)
	}
	return f.Close()
}

// storeCounts is the part of the store's statistics the trace reports.
type storeCounts struct {
	puts uint64
	live int64
}

func (s *session) storeStats() storeCounts {
	if st := s.m.Store(); st != nil {
		ss := st.Stats()
		return storeCounts{puts: ss.Puts, live: ss.LiveBytes}
	}
	return storeCounts{}
}

func (c storeCounts) since(b storeCounts) storeCounts {
	return storeCounts{puts: c.puts - b.puts, live: c.live}
}

// replays holds what the replays measured, per metric.
type replays struct {
	times  map[string][]time.Duration
	counts map[string]int64
	// skippedProbes counts instances whose SAT probes were not replayed
	// because the run was close to its deadline.
	skippedProbes int
}

// probeReserve is the time a run must have left to replay one instance's
// SAT probes; a slow host then loses probe samples instead of the run.
const probeReserve = 30 * time.Second

// replay re-runs, after the traced round, the layer calls behind each
// distinct answer of that round, each as a span of its own: the DP
// engine's solve, the swap table, the encoding and the SAT probes at the optimum
// and one below it, the portfolio's heuristic bound, store records, the
// ladder's heuristic fallback and the verifiers. None of it counts as
// request latency. A replay that contradicts the reference marks the
// sample wrong.
func (s *session) replay(ctx context.Context, p *phase, tr *tracer) (*replays, error) {
	rp := &replays{times: map[string][]time.Duration{}, counts: map[string]int64{}}
	var st *store.Store
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	seen := map[string]bool{}
	for _, sm := range p.samples {
		if !sm.ok() || seen[sm.req.key] {
			continue
		}
		seen[sm.req.key] = true
		if sm.req.class == "hit" || sm.req.class == "miss" {
			if st == nil {
				var err error
				if st, err = store.Open(filepath.Join(s.tmp, "replay-store"), store.Options{}); err != nil {
					return nil, fmt.Errorf("opening the replay store: %w", err)
				}
			}
		}
		if err := s.replayOne(ctx, sm, tr, st, rp); err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			sm.bad = err
		}
	}
	if st != nil {
		err := st.Close()
		st = nil
		if err != nil {
			return nil, fmt.Errorf("closing the replay store: %w", err)
		}
	}
	return rp, nil
}

func (s *session) replayOne(ctx context.Context, sm *sample, tr *tracer, st *store.Store, rp *replays) error {
	r, res := sm.req, sm.res
	root := tr.open(0, "replay", sm.id)
	defer tr.close(root)
	sk, err := circuit.ExtractSkeleton(r.circ)
	if err != nil {
		return err
	}
	record := func(name string, f func() (map[string]int64, error)) error {
		var ferr error
		d := tr.timed(root, name, sm.id, func() map[string]int64 {
			var c map[string]int64
			c, ferr = f()
			return c
		})
		rp.times[name] = append(rp.times[name], d)
		return ferr
	}

	if err := record("verify.coupling", func() (map[string]int64, error) {
		return nil, verify.CouplingCompliant(res.Mapped, r.arch)
	}); err != nil {
		return err
	}
	if r.arch.NumQubits() <= sim.MaxQubits && r.circ.NumQubits() <= 6 {
		if err := record("verify.equivalent", func() (map[string]int64, error) {
			return nil, verify.Equivalent(r.circ, res.Mapped, r.arch.NumQubits(), res.InitialLayout, res.FinalLayout)
		}); err != nil {
			return err
		}
	}
	if !r.exactFamily() {
		return nil
	}

	// The reference comes from the benchmark's own DP loop; the timed call
	// is the library's DP path, subset fan-out included, which must agree.
	ref, err := s.refs.optimum(ctx, r)
	if err != nil {
		return err
	}
	if err := record("exact.dp", func() (map[string]int64, error) {
		eo := exact.Options{Engine: exact.EngineDP, UseSubsets: r.opts.Method == qxmap.MethodExactSubsets}
		dp, err := exact.Solve(ctx, sk, r.arch, eo)
		if err != nil {
			return nil, err
		}
		if dp.Cost != ref.Cost {
			return nil, fmt.Errorf("exact.Solve with the DP engine cost %d, reference %d", dp.Cost, ref.Cost)
		}
		return map[string]int64{"cost": int64(dp.Cost)}, nil
	}); err != nil {
		return err
	}
	opt := ref.Cost
	if err := record("perm.swap_table", func() (map[string]int64, error) {
		w := ref.WorkArch
		space := perm.NewSpace(w.NumQubits(), sk.NumQubits)
		perm.NewSwapTable(space, w.UndirectedEdges())
		return map[string]int64{"mappings": int64(space.Size())}, nil
	}); err != nil {
		return err
	}

	switch r.class {
	case "table1":
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < probeReserve {
			rp.skippedProbes++
			return nil
		}
		return s.replaySAT(ctx, sk, r, opt, record, rp)
	case "hit", "miss":
		if r.class == "miss" {
			if err := record("portfolio.bound", func() (map[string]int64, error) {
				h, err := heuristic.MapBest(ctx, sk, r.arch, 2, heuristic.Options{Seed: r.opts.Seed})
				if err != nil {
					return nil, err
				}
				return map[string]int64{"cost": int64(h.Cost)}, nil
			}); err != nil {
				return err
			}
		}
		eo := exact.Options{Strategy: exact.StrategyAll, UseSubsets: r.opts.Method == qxmap.MethodExactSubsets}
		key := portfolio.StoreKey(portfolio.Fingerprint(sk, r.arch, eo))
		val, err := portfolio.EncodeResult(ref)
		if err != nil {
			return err
		}
		if err := record("store.put", func() (map[string]int64, error) {
			return map[string]int64{"bytes": int64(len(val))}, st.Put(key, val)
		}); err != nil {
			return err
		}
		return record("store.get", func() (map[string]int64, error) {
			got, ok, err := st.Get(key)
			if err == nil && (!ok || string(got) != string(val)) {
				err = fmt.Errorf("store read back a different record")
			}
			return nil, err
		})
	case "ladder":
		if res.Stats.Degradation != portfolio.DegradationAnytime {
			return nil
		}
		return record("portfolio.fallback", func() (map[string]int64, error) {
			h, err := portfolio.HeuristicFallback(ctx, sk, r.arch, r.opts.Seed, nil)
			if err != nil {
				return nil, err
			}
			if h.Cost < opt {
				return nil, fmt.Errorf("heuristic fallback cost %d beats DP optimum %d", h.Cost, opt)
			}
			rp.counts["portfolio.fallback_gates"] += int64(h.Cost)
			return map[string]int64{"cost": int64(h.Cost)}, nil
		})
	}
	return nil
}

// replaySAT encodes the instance on a fresh solver, then probes the cost
// bound at the DP optimum (must be SAT) and one below it (must be UNSAT).
func (s *session) replaySAT(ctx context.Context, sk *circuit.Skeleton, r *request, opt int,
	record func(string, func() (map[string]int64, error)) error, rp *replays) error {
	solver := sat.New(sat.Options{})
	var enc *encoder.Encoding
	if err := record("encoder.encode", func() (map[string]int64, error) {
		var err error
		enc, err = encoder.Encode(ctx, encoder.Problem{Skeleton: sk, Arch: r.arch}, cnf.NewBuilder(solver))
		if err != nil {
			return nil, err
		}
		c := map[string]int64{"vars": int64(solver.NumVars()), "clauses": int64(solver.NumClauses())}
		rp.counts["encoder.vars"] += c["vars"]
		rp.counts["encoder.clauses"] += c["clauses"]
		return c, nil
	}); err != nil {
		return err
	}
	probe := func(name string, bound int, want sat.Status) error {
		return record(name, func() (map[string]int64, error) {
			before := solver.Snapshot()
			got := solver.SolveContext(ctx, enc.CostAtMostLit(bound))
			after := solver.Snapshot()
			c := map[string]int64{
				"bound":        int64(bound),
				"conflicts":    after.Conflicts - before.Conflicts,
				"propagations": after.Propagations - before.Propagations,
			}
			rp.counts["sat.propagations"] += c["propagations"]
			if got != want {
				if err := ctx.Err(); err != nil {
					return c, err
				}
				return c, fmt.Errorf("SAT probe F ≤ %d returned %s, DP optimum %d says %s", bound, got, opt, want)
			}
			return c, nil
		})
	}
	if err := probe("sat.model_probe", opt, sat.Sat); err != nil {
		return err
	}
	if opt == 0 {
		return nil
	}
	return probe("sat.unsat_probe", opt-1, sat.Unsat)
}
