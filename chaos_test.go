package qxmap

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/revlib"
)

// The chaos suite drives the full public pipeline under injected faults
// and asserts the robustness contract end to end: every call returns a
// verified-valid result or an explicit error — never a silently wrong
// cost, never a dead process. Run it with -race; the CI chaos job does.

// chaosReference solves the chaos corpus on a clean mapper and returns
// the per-name minimal costs every faulted run is checked against.
func chaosReference(t *testing.T, jobs []Job) map[string]int {
	t.Helper()
	m, err := NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ref := make(map[string]int, len(jobs))
	for _, j := range jobs {
		res, err := m.MapWith(context.Background(), j.Circuit, j.Arch, j.Opts)
		if err != nil {
			t.Fatalf("reference solve %s: %v", j.Name, err)
		}
		ref[j.Name] = res.Cost
	}
	return ref
}

func chaosJobs() []Job {
	bm := func(name string) *Circuit {
		b, err := revlib.SuiteByName(name)
		if err != nil {
			panic(err)
		}
		return b.Circuit
	}
	return []Job{
		{Name: "fig1a", Circuit: Figure1a(), Arch: QX4(), Opts: Options{Method: MethodExact, Engine: EngineDP}},
		{Name: "fig1a-sat", Circuit: Figure1a(), Arch: QX4(), Opts: Options{Method: MethodExact, Engine: EngineSAT}},
		{Name: "miller", Circuit: bm("miller_11"), Arch: QX4(), Opts: Options{Method: MethodExact, Engine: EngineDP}},
		{Name: "fig1a-heur", Circuit: Figure1a(), Arch: QX4(), Opts: Options{Method: MethodHeuristic, Seed: 1}},
	}
}

// TestChaosStoreFaultsNeverChangeAnswers: with the persistent tier
// failing on a deterministic schedule — reads and writes alike — batch
// mapping with a store must still answer every job, at exactly the
// reference costs: transient faults are retried, persistent ones read as
// misses and re-solves, and no fault is ever allowed to surface as a
// wrong answer. Runs the batch twice so the second pass exercises faulted
// lookups of records the first pass may or may not have landed.
func TestChaosStoreFaultsNeverChangeAnswers(t *testing.T) {
	jobs := chaosJobs()
	ref := chaosReference(t, jobs)

	m, err := NewMapper(WithStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	deactivate := faultinject.Activate(7, faultinject.Plan{
		"store.get": {Err: errors.New("chaos: disk read stall"), Every: 2},
		"store.put": {Err: errors.New("chaos: disk write stall"), Every: 2},
	})
	defer deactivate()

	for pass := 0; pass < 2; pass++ {
		results := m.MapBatch(context.Background(), jobs, BatchOptions{})
		for _, br := range results {
			if br.Err != nil {
				t.Errorf("pass %d %s: store chaos surfaced as a job error: %v", pass, br.Job.Name, br.Err)
				continue
			}
			if br.Result.Cost != ref[br.Job.Name] {
				t.Errorf("pass %d %s: cost %d under store chaos, reference %d",
					pass, br.Job.Name, br.Result.Cost, ref[br.Job.Name])
			}
		}
	}
	if faultinject.Fired("store.get")+faultinject.Fired("store.put") == 0 {
		t.Error("chaos plan never fired; the store hooks are not wired")
	}
}

// TestChaosPipelinePanicContained: a panic inside the mapping pipeline
// must come back as an error from that call — with the panic value in the
// message — while the mapper keeps serving subsequent calls.
func TestChaosPipelinePanicContained(t *testing.T) {
	m, err := NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	deactivate := faultinject.Activate(1, faultinject.Plan{
		"qxmap.pipeline": {PanicMsg: "chaos: pipeline dies", Limit: 1},
	})
	_, err = m.Map(context.Background(), Figure1a(), QX4())
	deactivate()
	if err == nil || !strings.Contains(err.Error(), "chaos: pipeline dies") {
		t.Fatalf("panicked pipeline returned err = %v, want the panic value as an error", err)
	}

	res, err := m.Map(context.Background(), Figure1a(), QX4())
	if err != nil {
		t.Fatalf("mapper unusable after a contained panic: %v", err)
	}
	if res.Cost < 0 {
		t.Fatalf("implausible post-panic result: %+v", res)
	}
}

// TestChaosSATPanicFullStack: a panic inside the CDCL solver, injected at
// the "sat.solve" point below four layers of API (sat → exact → solver →
// pipeline), must fail only the Map call it hit, with an error carrying
// the panic message, and leave the Mapper serving: its next call maps at
// the reference cost. Plain exact is caught by SolveSAT's recover
// boundary, exact-subsets by the shared §4.1 fan-out's.
func TestChaosSATPanicFullStack(t *testing.T) {
	for method, boundary := range map[Method]string{
		MethodExact:        "SAT engine panic",
		MethodExactSubsets: "shared subset fan-out panic",
	} {
		t.Run(method.String(), func(t *testing.T) {
			opts := Options{Method: method, Engine: EngineSAT}
			clean, err := func() (*Result, error) {
				m, err := NewMapper()
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				return m.MapWith(context.Background(), Figure1a(), QX4(), opts)
			}()
			if err != nil {
				t.Fatal(err)
			}

			m, err := NewMapper()
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			deactivate := faultinject.Activate(1, faultinject.Plan{
				"sat.solve": {PanicMsg: "chaos: solver dies", Limit: 1},
			})
			_, err = m.MapWith(context.Background(), Figure1a(), QX4(), opts)
			fired := faultinject.Fired("sat.solve")
			deactivate()
			if fired != 1 {
				t.Fatalf("sat.solve fired %d times, want 1", fired)
			}
			if err == nil || !strings.Contains(err.Error(), "chaos: solver dies") || !strings.Contains(err.Error(), boundary) {
				t.Fatalf("panicked solve returned err = %v, want the panic value as a %q error", err, boundary)
			}

			res, err := m.MapWith(context.Background(), Figure1a(), QX4(), opts)
			if err != nil {
				t.Fatalf("mapper unusable after a contained SAT panic: %v", err)
			}
			if res.Cost != clean.Cost || res.Minimal != clean.Minimal {
				t.Errorf("post-panic cost %d (minimal %v), reference %d (minimal %v)", res.Cost, res.Minimal, clean.Cost, clean.Minimal)
			}
		})
	}
}

// TestLadderFullStackAcceptance is the end-to-end degradation acceptance
// check on a Table-1 benchmark: through the public API with the ladder
// enabled, a deadline too short for the full proof must still yield a
// plan that the pipeline's verifier accepted — non-minimal, labelled with
// its rung, and (for the anytime rung) bracketing the true optimum —
// while a generous deadline reproduces the exact minimal cost unchanged.
// The deadline separating the regimes is machine-dependent, so the test
// binary-searches it, validating every run against the trichotomy:
// heuristic rung (deadline below any incumbent), anytime rung (the
// window we are after), or a full minimal solve.
func TestLadderFullStackAcceptance(t *testing.T) {
	bm, err := revlib.SuiteByName("3_17_13")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Method: MethodExact, Engine: EngineSAT, Ladder: true}
	m, err := NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Generous deadline: the ladder must be invisible — full minimal solve.
	start := time.Now()
	ref, err := m.MapWith(context.Background(), bm.Circuit, QX4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if !ref.Minimal || ref.Stats.Degradation != "" {
		t.Fatalf("generous-deadline ladder run degraded: minimal=%v degradation=%q",
			ref.Minimal, ref.Stats.Degradation)
	}

	lo, hi := time.Duration(0), full // invariant: lo degrades to heuristic, hi solves fully
	for i := 0; i < 14; i++ {
		d := (lo + hi) / 2
		if d <= 0 {
			break
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		res, err := m.MapWith(ctx, bm.Circuit, QX4(), opts)
		cancel()
		if err != nil {
			t.Fatalf("deadline %v: ladder let an exhaustion escape: %v", d, err)
		}
		switch res.Stats.Degradation {
		case "heuristic":
			// Below any incumbent: the bottom rung answered. Valid but
			// not the window we are after — search upward.
			if res.Minimal {
				t.Fatalf("deadline %v: heuristic plan claims minimality", d)
			}
			lo = d
		case "":
			if !res.Minimal || res.Cost != ref.Cost {
				t.Fatalf("deadline %v: undegraded plan minimal=%v cost=%d, reference %d",
					d, res.Minimal, res.Cost, ref.Cost)
			}
			hi = d
		case "anytime":
			if res.Minimal {
				t.Errorf("deadline %v: anytime plan claims minimality", d)
			}
			if res.Cost < ref.Cost {
				t.Errorf("deadline %v: anytime cost %d undercuts the optimum %d", d, res.Cost, ref.Cost)
			}
			if res.Cost-res.Stats.BoundGap > ref.Cost {
				t.Errorf("deadline %v: bracket [%d, %d] excludes the optimum %d",
					d, res.Cost-res.Stats.BoundGap, res.Cost, ref.Cost)
			}
			if res.Mapped == nil || len(res.Mapped.Gates()) == 0 {
				t.Errorf("deadline %v: anytime plan carries no mapped circuit", d)
			}
			return
		default:
			t.Fatalf("deadline %v: unknown degradation %q", d, res.Stats.Degradation)
		}
	}
	t.Skip("anytime window between heuristic rung and full proof too narrow on this machine")
}

// TestChaosSubmitHammering: async jobs whose contexts are cancelled or
// deadline-expired at staggered points — before, during and after their
// run — must each settle to exactly one of a result or an error, and the
// mapper must close cleanly afterwards. This is the scheduler's
// valid-or-explicit-error contract under concurrency.
func TestChaosSubmitHammering(t *testing.T) {
	m, err := NewMapper(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 24
	var wg sync.WaitGroup
	errCh := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			switch i % 4 {
			case 0: // already dead at submission
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			case 1: // dies while queued or running
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*time.Millisecond)
				defer cancel()
			case 2: // explicit cancel racing the run
				ctx, cancel = context.WithCancel(ctx)
				go func() { time.Sleep(time.Duration(i) * time.Millisecond); cancel() }()
			}
			h, err := m.Submit(ctx, Job{Circuit: Figure1a(), Arch: QX4(), Opts: Options{Method: MethodExact, Engine: EngineDP}})
			if err != nil {
				return // a rejected submission is an explicit error: fine
			}
			res, err := h.Wait(context.Background())
			if (res == nil) == (err == nil) {
				errCh <- fmt.Errorf("job %d: res=%v err=%v, want exactly one", i, res, err)
				return
			}
			if err == nil && res.Cost < 0 {
				errCh <- fmt.Errorf("job %d: implausible cost %d", i, res.Cost)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Error(e)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close after hammering: %v", err)
	}
}
