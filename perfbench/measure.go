package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric; the lists below match BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEndMetrics are reported by untraced runs, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"maps_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"cpu_ms_per_map", "ms", "lower"},
	{"added_gates", "count", "lower"},
	{"emitted_gates", "count", "lower"},
	{"minimal_ratio", "ratio", "higher"},
	{"success_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are reported by traced runs, on every workload; a layer
// that does no work on a workload reports 0.
var perLayerMetrics = []metricDef{
	{"qxmap.solve_ms", "ms", "lower"},
	{"qxmap.materialize_ms", "ms", "lower"},
	{"qxmap.verify_ms", "ms", "lower"},
	{"qxmap.queue_wait_ms", "ms", "lower"},
	{"qxmap.json_ms", "ms", "lower"},
	{"qasm.parse_ms", "ms", "lower"},
	{"portfolio.mem_hit_ratio", "ratio", "higher"},
	{"portfolio.disk_hit_ratio", "ratio", "higher"},
	{"portfolio.hit_solve_ms", "ms", "lower"},
	{"portfolio.miss_solve_ms", "ms", "lower"},
	{"portfolio.dp_win_ratio", "ratio", "higher"},
	{"portfolio.bound_ms", "ms", "lower"},
	{"portfolio.rung_full", "count", "higher"},
	{"portfolio.rung_anytime", "count", "lower"},
	{"portfolio.rung_heuristic", "count", "lower"},
	{"portfolio.anytime_gates", "count", "lower"},
	{"portfolio.fallback_gates", "count", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.puts", "count", "lower"},
	{"store.live_mb", "MB", "lower"},
	{"exact.dp_ms", "ms", "lower"},
	{"exact.bound_probes", "count", "lower"},
	{"exact.bound_jumps", "count", "higher"},
	{"exact.sat_solves", "count", "lower"},
	{"exact.lower_bound_gap", "count", "lower"},
	{"encoder.encode_ms", "ms", "lower"},
	{"encoder.vars", "count", "lower"},
	{"encoder.clauses", "count", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sat.propagations", "count", "lower"},
	{"sat.props_per_ms", "1/ms", "higher"},
	{"sat.model_probe_ms", "ms", "lower"},
	{"sat.unsat_probe_ms", "ms", "lower"},
	{"perm.swap_table_ms", "ms", "lower"},
	{"heuristic.stochastic_ms", "ms", "lower"},
	{"heuristic.astar_ms", "ms", "lower"},
	{"heuristic.sabre_ms", "ms", "lower"},
	{"heuristic.fallback_ms", "ms", "lower"},
	{"verify.coupling_ms", "ms", "lower"},
	{"verify.equivalent_ms", "ms", "lower"},
	{"go.alloc_mb_per_map", "MB", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.spans", "count", "lower"},
}

// measure warms up, runs the timed phase (or, traced, one untraced and one
// traced round plus the replays), checks every answer and builds the report.
func (s *session) measure(ctx context.Context) (*report, error) {
	// References of the first round, before timing; later rounds' fresh
	// inputs get theirs in the checks after the timed phase.
	for _, r := range s.b.round(0) {
		if r.exactFamily() {
			if _, err := s.refs.optimum(ctx, r); err != nil {
				return nil, err
			}
		}
	}
	if err := s.warm(ctx); err != nil {
		return nil, err
	}
	if !s.cfg.trace {
		p, err := s.loop(ctx, 0, s.cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		return s.endToEnd(ctx, p)
	}
	base, err := s.loop(ctx, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	storeBefore := s.storeStats()
	traced, err := s.loop(ctx, base.rounds, 0, tr)
	if err != nil {
		return nil, err
	}
	storeAfter := s.storeStats()
	return s.perLayer(ctx, base, traced, tr, storeAfter.since(storeBefore))
}

// newReport checks the samples and starts a report over them.
func (s *session) newReport(ctx context.Context, samples []*sample) (*report, error) {
	notes, err := s.check(ctx, samples)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}, notes: notes}
	for _, sm := range samples {
		if !sm.ok() {
			rep.Failed++
		}
		if sm.bad != nil {
			rep.Correct = false
		}
	}
	if rep.Attempted == 0 {
		return nil, errNoSamples
	}
	return rep, nil
}

// endToEnd reports the user-visible metrics of an untraced phase. Counts of
// answers cover the phase's first round, which every run of one seed
// repeats exactly; times cover every round.
func (s *session) endToEnd(ctx context.Context, p *phase) (*report, error) {
	rep, err := s.newReport(ctx, p.samples)
	if err != nil {
		return nil, err
	}
	var lats []time.Duration
	maps := 0
	for _, sm := range p.samples {
		lats = append(lats, sm.lat)
		if sm.ok() {
			maps++
		}
	}
	first := firstRound(p)
	var added, emitted, minimal, ok int
	for _, sm := range first {
		if !sm.ok() {
			continue
		}
		ok++
		added += sm.res.Cost
		emitted += sm.res.Mapped.Len() - sm.req.circ.Len()
		if sm.res.Minimal {
			minimal++
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	q, tail := tailPercentile(len(lats))
	set := func(name string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: unitOf(endToEndMetrics, name)}
	}
	set("setup_s", median(s.setups).Seconds())
	set("maps_per_s", float64(maps)/p.elapsed.Seconds())
	set("latency_ms_p50", ms(percentile(lats, 0.5)))
	set("latency_ms_tail", ms(percentile(lats, q)))
	set("cpu_ms_per_map", ms(p.use.cpu)/math.Max(1, float64(maps)))
	set("added_gates", float64(added))
	set("emitted_gates", float64(emitted))
	set("minimal_ratio", ratio(minimal, ok))
	set("success_ratio", ratio(ok, len(first)))
	set("peak_rss_mb", rss)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s seed %d: %d rounds, %d requests (%d per round), %d failed, %.2f s timed",
			s.b.name, s.cfg.seed, p.rounds, len(p.samples), len(first), rep.Failed, p.elapsed.Seconds()),
		fmt.Sprintf("latency_ms_p50 over %d samples; latency_ms_tail is %s over %d samples", len(lats), tail, len(lats)),
		fmt.Sprintf("setup_s is the median of %d set-ups (p10 %.3g s, p90 %.3g s)",
			len(s.setups), percentile(s.setups, 0.1).Seconds(), percentile(s.setups, 0.9).Seconds()))
	rep.notes = append(rep.notes, classShares(p.samples)...)
	rep.notes = append(rep.notes, roundTimes(p))
	return rep, nil
}

// firstRound returns the samples of the phase's first round.
func firstRound(p *phase) []*sample {
	var out []*sample
	for _, sm := range p.samples {
		if sm.round == p.firstRound {
			out = append(out, sm)
		}
	}
	return out
}

// classShares states each request class's share of requests and of the
// summed request latency.
func classShares(samples []*sample) []string {
	count := map[string]int{}
	busy := map[string]time.Duration{}
	var total time.Duration
	for _, sm := range samples {
		count[sm.req.class]++
		busy[sm.req.class] += sm.lat
		total += sm.lat
	}
	var classes []string
	for c := range count {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var notes []string
	for _, c := range classes {
		notes = append(notes, fmt.Sprintf("class %-9s %5.1f%% of requests, %5.1f%% of request time",
			c, 100*ratio(count[c], len(samples)), 100*busy[c].Seconds()/math.Max(total.Seconds(), 1e-9)))
	}
	return notes
}

// tailPercentile picks the highest of p99, p90 and p50 that leaves at
// least ten samples beyond it.
func tailPercentile(n int) (float64, string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 100:
		return 0.9, "p90"
	}
	return 0.5, "p50"
}

// percentile interpolates linearly between the closest ranks.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undefined metric " + name)
}

// roundTimes states each round's wall time, first start to last end; with
// two clients neighbouring rounds overlap a little. A drift across rounds
// of identical work shows the host's speed changing under the run.
func roundTimes(p *phase) string {
	lo := map[int]time.Time{}
	hi := map[int]time.Time{}
	for _, sm := range p.samples {
		if t, ok := lo[sm.round]; !ok || sm.start.Before(t) {
			lo[sm.round] = sm.start
		}
		if e := sm.start.Add(sm.lat); e.After(hi[sm.round]) {
			hi[sm.round] = e
		}
	}
	out := "round wall times (s):"
	for r := p.firstRound; r < p.firstRound+p.rounds; r++ {
		out += fmt.Sprintf(" %.2f", hi[r].Sub(lo[r]).Seconds())
	}
	return out
}
