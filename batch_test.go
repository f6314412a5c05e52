package qxmap

import (
	"context"
	"errors"
	"testing"
	"time"
)

// suite20 builds a 20-circuit batch workload over 3–5 qubits.
func suite20(method Method) []Job {
	jobs := make([]Job, 20)
	for i := range jobs {
		n := 3 + i%3
		jobs[i] = Job{
			Name:    "rand",
			Circuit: randomElementary(int64(i), n, 6+i%8),
			Arch:    QX4(),
			Opts:    Options{Method: method, Engine: EngineDP, Seed: int64(i)},
		}
	}
	return jobs
}

// TestMapBatchParityWithSequential is the acceptance check: a 20-circuit
// suite mapped concurrently must produce exactly the costs of sequential
// Map calls on the same jobs.
func TestMapBatchParityWithSequential(t *testing.T) {
	mp := newTestMapper(t)
	jobs := suite20(MethodExact)
	batch := mp.MapBatch(context.Background(), jobs, BatchOptions{Workers: 8})
	if len(batch) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(batch), len(jobs))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("job %d: %v", i, br.Err)
		}
		if br.Index != i {
			t.Errorf("result %d carries index %d", i, br.Index)
		}
		seq, err := mp.MapWith(context.Background(), jobs[i].Circuit, jobs[i].Arch, jobs[i].Opts)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		if br.Result.Cost != seq.Cost {
			t.Errorf("job %d: batch cost %d != sequential cost %d", i, br.Result.Cost, seq.Cost)
		}
		if !br.Result.Minimal {
			t.Errorf("job %d: exact batch result not minimal", i)
		}
	}
}

// TestMapBatchMixedMethods runs every method family in one batch (under
// the race detector in CI) and checks no heuristic beats the exact
// minimum on the shared instance.
func TestMapBatchMixedMethods(t *testing.T) {
	mp := newTestMapper(t)
	c := Figure1a()
	methods := []Method{MethodExact, MethodExactSubsets, MethodDisjoint,
		MethodOdd, MethodTriangle, MethodHeuristic, MethodAStar, MethodSabre}
	jobs := make([]Job, len(methods))
	for i, m := range methods {
		jobs[i] = Job{
			Name:    m.String(),
			Circuit: c,
			Arch:    QX4(),
			Opts:    Options{Method: m, Engine: EngineDP, Seed: 7, Lookahead: 0.5},
		}
	}
	// One portfolio-mode job rides along to exercise the shared cache path
	// concurrently with the direct jobs.
	jobs = append(jobs, Job{Name: "portfolio", Circuit: c, Arch: QX4(),
		Opts: Options{Portfolio: true}})

	for _, br := range mp.MapBatch(context.Background(), jobs, BatchOptions{}) {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Job.Name, br.Err)
		}
		if br.Result.Cost < 4 {
			t.Errorf("%s: cost %d beats the minimum 4", br.Job.Name, br.Result.Cost)
		}
		if br.Result.Stats.SolveTime <= 0 {
			t.Errorf("%s: missing solve-stage timing", br.Job.Name)
		}
	}
}

// TestMapBatchFailSoft: a malformed job fails alone; the rest of the batch
// completes.
func TestMapBatchFailSoft(t *testing.T) {
	mp := newTestMapper(t)
	good := Job{Circuit: Figure1a(), Arch: QX4(), Opts: Options{Engine: EngineDP}}
	bad := Job{Circuit: NewCircuit(6).AddCNOT(0, 5), Arch: QX4()} // 6 qubits on QX4
	batch := mp.MapBatch(context.Background(), []Job{good, bad, good}, BatchOptions{Workers: 2})
	if batch[0].Err != nil || batch[2].Err != nil {
		t.Errorf("good jobs failed: %v / %v", batch[0].Err, batch[2].Err)
	}
	if batch[1].Err == nil {
		t.Error("oversized job should fail")
	}
	if batch[0].Result == nil || batch[0].Result.Cost != 4 {
		t.Error("good job lost its result")
	}
}

// TestMapBatchJobTimeout: per-job deadlines expire exact and heuristic
// jobs alike — MethodHeuristic and MethodSabre observe ctx between
// restarts/passes, so a hopeless deadline must fail them too.
func TestMapBatchJobTimeout(t *testing.T) {
	mp := newTestMapper(t)
	c := randomElementary(3, 5, 24)
	var jobs []Job
	for _, m := range []Method{MethodExact, MethodHeuristic, MethodSabre} {
		jobs = append(jobs, Job{Name: m.String(), Circuit: c, Arch: QX4(),
			Opts: Options{Method: m, Engine: EngineDP, Lookahead: 0.5}})
	}
	batch := mp.MapBatch(context.Background(), jobs, BatchOptions{JobTimeout: time.Nanosecond})
	for _, br := range batch {
		if !errors.Is(br.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", br.Job.Name, br.Err)
		}
	}
	// The same jobs succeed without the deadline.
	for _, br := range mp.MapBatch(context.Background(), jobs, BatchOptions{}) {
		if br.Err != nil {
			t.Errorf("%s without timeout: %v", br.Job.Name, br.Err)
		}
	}
}

// TestMapBatchCancellation: cancelling the batch context fails the
// remaining jobs fail-soft instead of hanging or panicking.
func TestMapBatchCancellation(t *testing.T) {
	mp := newTestMapper(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := mp.MapBatch(ctx, suite20(MethodExact), BatchOptions{Workers: 4})
	for i, br := range batch {
		if !errors.Is(br.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, br.Err)
		}
	}
}

// TestMapBatchSharedPortfolioCache: identical Portfolio jobs within one
// batch share the Mapper's cache — with a single worker the second job
// must be served from memory.
func TestMapBatchSharedPortfolioCache(t *testing.T) {
	mp := newTestMapper(t)
	c := randomElementary(91, 4, 9) // distinct instance from other tests
	job := Job{Circuit: c, Arch: QX4(), Opts: Options{Portfolio: true}}
	batch := mp.MapBatch(context.Background(), []Job{job, job}, BatchOptions{Workers: 1})
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("job %d: %v", i, br.Err)
		}
	}
	if !batch[1].Result.CacheHit {
		t.Error("second identical portfolio job missed the shared cache")
	}
	if batch[0].Result.Cost != batch[1].Result.Cost {
		t.Errorf("cached cost %d != solved cost %d", batch[1].Result.Cost, batch[0].Result.Cost)
	}
}

// TestMapBatchEmptyAndZeroCNOTCircuits pushes degenerate inputs through
// the full pipeline: gateless circuits and single-qubit-only circuits map
// with zero cost under every method.
func TestMapBatchEmptyAndZeroCNOTCircuits(t *testing.T) {
	mp := newTestMapper(t)
	var jobs []Job
	for _, m := range []Method{MethodExact, MethodHeuristic, MethodSabre} {
		jobs = append(jobs,
			Job{Name: "empty/" + m.String(), Circuit: NewCircuit(3), Arch: QX4(), Opts: Options{Method: m}},
			Job{Name: "1q/" + m.String(), Circuit: NewCircuit(3).AddH(0).AddT(1).AddX(2), Arch: QX4(), Opts: Options{Method: m}},
		)
	}
	for _, br := range mp.MapBatch(context.Background(), jobs, BatchOptions{Workers: 3}) {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Job.Name, br.Err)
		}
		if br.Result.Cost != 0 || !br.Result.Minimal {
			t.Errorf("%s: cost=%d minimal=%v, want 0/true", br.Job.Name, br.Result.Cost, br.Result.Minimal)
		}
		if br.Result.Stats.Engine != "none" || br.Result.Stats.Solver != "none" {
			t.Errorf("%s: provenance = %q/%q, want none/none (no CNOTs to solve)",
				br.Job.Name, br.Result.Stats.Solver, br.Result.Stats.Engine)
		}
	}
}

// TestResultStatsReportsStages: the staged pipeline reports per-stage
// wall-clock durations and solver provenance.
func TestResultStatsReportsStages(t *testing.T) {
	mp := newTestMapper(t)
	res, err := mp.MapWith(context.Background(), Figure1a(), QX4(), Options{Engine: EngineSAT, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.SolveTime <= 0 || s.MaterializeTime <= 0 || s.VerifyTime <= 0 || s.OptimizeTime <= 0 {
		t.Errorf("missing stage timings: %+v", s)
	}
	if s.Solver != "exact" || s.Engine != "sat" {
		t.Errorf("provenance = %q/%q, want exact/sat", s.Solver, s.Engine)
	}
	if s.SATSolves == 0 || s.SATConflicts == 0 {
		t.Errorf("SAT counters missing: solves=%d conflicts=%d", s.SATSolves, s.SATConflicts)
	}
	total := s.SkeletonTime + s.SolveTime + s.MaterializeTime + s.VerifyTime + s.OptimizeTime
	if total > res.Runtime {
		t.Errorf("stage sum %v exceeds total runtime %v", total, res.Runtime)
	}
}
