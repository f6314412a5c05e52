package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/portfolio"
)

// perLayer reports the per-layer metrics of a traced round (traced), from
// the pipeline's own stage times, the replays and the spans; base is the
// untraced round run just before it, whose latency gives the tracing
// overhead. The spans are written to the work directory.
func (s *session) perLayer(ctx context.Context, base, traced *phase, tr *tracer, sc storeCounts) (*report, error) {
	rp, err := s.replay(ctx, traced, tr)
	if err != nil {
		return nil, err
	}
	all := append(append([]*sample(nil), base.samples...), traced.samples...)
	rep, err := s.newReport(ctx, all)
	if err != nil {
		return nil, err
	}

	times := map[string][]time.Duration{}
	add := func(name string, d time.Duration) { times[name] = append(times[name], d) }
	counts := map[string]int64{}
	var lats []time.Duration
	var exactN, memHits, diskHits, misses, dpWins, maps int
	for _, sm := range traced.samples {
		lats = append(lats, sm.lat)
		if !sm.ok() {
			continue
		}
		maps++
		st, r := sm.res.Stats, sm.req
		add("qxmap.solve_ms", st.SolveTime)
		add("qxmap.materialize_ms", st.MaterializeTime)
		add("qxmap.verify_ms", st.VerifyTime)
		if s.b.burst > 1 {
			add("qxmap.queue_wait_ms", sm.queued)
		}
		if r.qasm != "" {
			add("qxmap.json_ms", sm.encode)
			add("qasm.parse_ms", sm.parse)
		}
		// A portfolio miss reports the work of whichever engine won the
		// DP/SAT race, which timing decides, so the work counters leave it
		// out: they must repeat exactly across runs of one seed.
		raced := r.opts.Portfolio && !sm.res.CacheHit
		if !raced {
			counts["sat.conflicts"] += st.SATConflicts
			counts["exact.bound_probes"] += int64(st.BoundProbes)
			counts["exact.bound_jumps"] += int64(st.BoundJumps)
			counts["exact.sat_solves"] += int64(st.SATSolves)
		}
		if !r.exactFamily() {
			add("heuristic."+heuristicMetric(r.opts.Method)+"_ms", st.SolveTime)
			continue
		}
		exactN++
		switch {
		case sm.res.CacheTier == portfolio.TierMemory:
			memHits++
		case sm.res.CacheTier == portfolio.TierDisk:
			diskHits++
		case r.opts.Portfolio:
			misses++
			add("portfolio.miss_solve_ms", st.SolveTime)
			if st.Engine == "dp" {
				dpWins++
			}
		}
		if sm.res.CacheHit {
			add("portfolio.hit_solve_ms", st.SolveTime)
		}
		switch st.Degradation {
		case "":
			counts["portfolio.rung_full"]++
			if st.Engine == "sat" && !sm.res.CacheHit && !raced {
				counts["exact.lower_bound_gap"] += int64(sm.res.Cost - st.LowerBound)
			}
		case portfolio.DegradationAnytime:
			counts["portfolio.rung_anytime"]++
			counts["portfolio.anytime_gates"] += int64(sm.res.Cost)
		case portfolio.DegradationHeuristic:
			counts["portfolio.rung_heuristic"]++
		}
	}
	for name, ds := range map[string]string{
		"portfolio.bound_ms":    "portfolio.bound",
		"store.get_ms":          "store.get",
		"store.put_ms":          "store.put",
		"exact.dp_ms":           "exact.dp",
		"encoder.encode_ms":     "encoder.encode",
		"sat.model_probe_ms":    "sat.model_probe",
		"sat.unsat_probe_ms":    "sat.unsat_probe",
		"perm.swap_table_ms":    "perm.swap_table",
		"heuristic.fallback_ms": "portfolio.fallback",
		"verify.coupling_ms":    "verify.coupling",
		"verify.equivalent_ms":  "verify.equivalent",
	} {
		times[name] = rp.times[ds]
	}
	for name, v := range rp.counts {
		counts[name] += v
	}
	var probeTime time.Duration
	for _, d := range append(append([]time.Duration(nil), rp.times["sat.model_probe"]...), rp.times["sat.unsat_probe"]...) {
		probeTime += d
	}

	set := func(name string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: unitOf(perLayerMetrics, name)}
	}
	for _, d := range perLayerMetrics {
		switch {
		case d.unit == "ms" && d.name != "trace.overhead_ms":
			set(d.name, ms(percentile(times[d.name], 0.5)))
		case d.unit == "count":
			set(d.name, float64(counts[d.name]))
		}
	}
	set("portfolio.mem_hit_ratio", ratio(memHits, exactN))
	set("portfolio.disk_hit_ratio", ratio(diskHits, exactN))
	set("portfolio.dp_win_ratio", ratio(dpWins, misses))
	set("store.puts", float64(sc.puts))
	set("store.live_mb", float64(sc.live)/1e6)
	set("sat.props_per_ms", float64(counts["sat.propagations"])/math.Max(ms(probeTime), 1e-9))
	set("go.alloc_mb_per_map", float64(traced.use.alloc)/1e6/math.Max(1, float64(maps)))
	set("go.gc_cpu_share", traced.use.gcCPU/math.Max(traced.use.cpu.Seconds(), 1e-9))
	var baseLats []time.Duration
	for _, sm := range base.samples {
		baseLats = append(baseLats, sm.lat)
	}
	set("trace.overhead_ms", ms(percentile(lats, 0.5))-ms(percentile(baseLats, 0.5)))
	set("trace.spans", float64(len(tr.spans)))

	path := filepath.Join(s.cfg.dir, fmt.Sprintf("trace-%s-%d.jsonl", s.b.name, s.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s seed %d traced: %d requests traced after %d untraced; %d spans in %s",
			s.b.name, s.cfg.seed, len(traced.samples), len(base.samples), len(tr.spans), path),
		fmt.Sprintf("trace.overhead_ms = traced p50 %.3f ms − untraced p50 %.3f ms",
			ms(percentile(lats, 0.5)), ms(percentile(baseLats, 0.5))))
	if rp.skippedProbes > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("SAT probes not replayed for %d instances: the run was within %v of its deadline",
			rp.skippedProbes, probeReserve))
	}
	var names []string
	for name := range rp.times {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var total time.Duration
		for _, d := range rp.times[name] {
			total += d
		}
		rep.notes = append(rep.notes, fmt.Sprintf("replay %-18s %4d calls, %10.3f ms in all", name, len(rp.times[name]), ms(total)))
	}
	return rep, nil
}

// heuristicMetric names a heuristic method's per-layer metric.
func heuristicMetric(m qxmap.Method) string {
	if m == qxmap.MethodHeuristic {
		return "stochastic"
	}
	return m.String()
}
