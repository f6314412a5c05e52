package qxmap

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/revlib"
)

// TestNewMapperOptionValidation: bad functional options fail construction
// with a descriptive error instead of building a broken instance.
func TestNewMapperOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"unknown method", WithMethod(Method(99))},
		{"negative cache", WithCacheSize(-1)},
		{"negative workers", WithWorkers(-2)},
		{"zero queue depth", WithQueueDepth(0)},
		{"negative timeout", WithDefaultTimeout(-time.Second)},
		{"negative runs", WithHeuristicRuns(-1)},
	}
	for _, tc := range cases {
		if _, err := NewMapper(tc.opt); err == nil {
			t.Errorf("%s: NewMapper accepted the option", tc.name)
		}
	}
}

// TestNewMapperDefaults: the zero configuration is the zero Options, and
// option values land in Options().
func TestNewMapperDefaults(t *testing.T) {
	m, err := NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Options(); !reflect.DeepEqual(got, Options{}) {
		t.Errorf("zero-config defaults = %+v, want zero Options", got)
	}
	if m.Workers() < 1 {
		t.Errorf("workers = %d, want ≥ 1", m.Workers())
	}

	m2, err := NewMapper(
		WithMethod(MethodSabre),
		WithEngine(EngineDP),
		WithPortfolio(true),
		WithVerify(false),
		WithOptimize(true),
		WithHeuristicRuns(7),
		WithSeed(42),
		WithLookahead(0.5),
		WithWorkers(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	want := Options{
		Method: MethodSabre, Engine: EngineDP, Portfolio: true,
		SkipVerify: true, Optimize: true, HeuristicRuns: 7, Seed: 42,
		Lookahead: 0.5,
	}
	if got := m2.Options(); !reflect.DeepEqual(got, want) {
		t.Errorf("Options() = %+v, want %+v", got, want)
	}
	if m2.Workers() != 3 {
		t.Errorf("workers = %d, want 3", m2.Workers())
	}
}

// TestMapperMapParity: Map under instance defaults equals MapWith with the
// same Options passed per call on a default instance (both run the
// identical pipeline).
func TestMapperMapParity(t *testing.T) {
	mp := newTestMapper(t)
	m, err := NewMapper(WithEngine(EngineDP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := Figure1a()
	inst, err := m.Map(context.Background(), c, QX4())
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := mp.MapWith(context.Background(), c, QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Cost != pkg.Cost || inst.Swaps != pkg.Swaps || inst.Switches != pkg.Switches {
		t.Errorf("instance-default result (F=%d) differs from per-call result (F=%d)", inst.Cost, pkg.Cost)
	}
	if !inst.Minimal {
		t.Error("exact instance result not minimal")
	}
}

// TestMapperCacheIsolation is the instance-scoping acceptance test: two
// mappers running concurrently on the identical Portfolio instance must
// each populate and hit only their own cache. With the old process-wide
// cache, the second mapper's first call would have been a hit.
func TestMapperCacheIsolation(t *testing.T) {
	c := randomElementary(7, 4, 8)
	a := QX4()
	opts := Options{Method: MethodExact, Portfolio: true}

	newM := func() *Mapper {
		m, err := NewMapper(WithPortfolio(true), WithCacheSize(16))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := newM(), newM()
	defer m1.Close()
	defer m2.Close()

	const calls = 3
	var wg sync.WaitGroup
	for _, m := range []*Mapper{m1, m2} {
		wg.Add(1)
		go func(m *Mapper) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				res, err := m.MapWith(context.Background(), c, a, opts)
				if err != nil {
					t.Errorf("map %d: %v", i, err)
					return
				}
				if wantHit := i > 0; res.CacheHit != wantHit {
					t.Errorf("call %d: CacheHit = %v, want %v", i, res.CacheHit, wantHit)
				}
			}
		}(m)
	}
	wg.Wait()

	for i, m := range []*Mapper{m1, m2} {
		cs := m.CacheStats()
		if cs.Misses != 1 || cs.Hits != calls-1 || cs.Entries != 1 {
			t.Errorf("mapper %d cache stats = %+v, want 1 miss, %d hits, 1 entry (instance-scoped)",
				i, cs, calls-1)
		}
	}
}

// TestMapperSubmitWait: the async happy path — Submit, observe Done, Wait,
// and read per-job Stats after completion.
func TestMapperSubmitWait(t *testing.T) {
	m, err := NewMapper(WithWorkers(2), WithEngine(EngineDP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	opts := m.Options()
	h, err := m.Submit(context.Background(), Job{Name: "fig1a", Circuit: Figure1a(), Arch: QX4(), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == 0 {
		t.Error("job ID is zero")
	}
	if h.Job().Name != "fig1a" {
		t.Errorf("handle job name = %q", h.Job().Name)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	default:
		t.Error("Done() not closed after Wait returned")
	}
	seq, err := m.MapWith(context.Background(), Figure1a(), QX4(), Options{Engine: EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != seq.Cost {
		t.Errorf("async cost %d != sync cost %d", res.Cost, seq.Cost)
	}

	st := h.Stats()
	if st.State != JobDone {
		t.Errorf("state = %v, want done", st.State)
	}
	if st.Run <= 0 {
		t.Errorf("run duration = %v, want > 0", st.Run)
	}
	if st.Pipeline.Solver != "exact" {
		t.Errorf("pipeline solver = %q, want exact", st.Pipeline.Solver)
	}

	// Waiting again returns the same outcome; Cancel after done is a no-op.
	h.Cancel()
	res2, err := h.Wait(context.Background())
	if err != nil || res2 != res {
		t.Errorf("second Wait = (%v, %v), want the cached outcome", res2, err)
	}
}

// TestMapperSubmitManyParity: a fan-out of async jobs matches sequential
// costs — the scheduler introduces no cross-job interference.
func TestMapperSubmitManyParity(t *testing.T) {
	m, err := NewMapper(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	jobs := suite20(MethodExact)
	handles := make([]*JobHandle, len(jobs))
	for i, job := range jobs {
		if handles[i], err = m.Submit(context.Background(), job); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		seq, err := m.MapWith(context.Background(), jobs[i].Circuit, jobs[i].Arch, jobs[i].Opts)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		if res.Cost != seq.Cost {
			t.Errorf("job %d: async cost %d != sequential %d", i, res.Cost, seq.Cost)
		}
	}
}

// TestMapperSubmitPreCanceled: a job whose context is already canceled at
// submission finishes without running, with an error wrapping the cause.
func TestMapperSubmitPreCanceled(t *testing.T) {
	m, err := NewMapper(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Submit still succeeds (the queue has room); the worker observes the
	// dead context before starting the pipeline.
	h, err := m.Submit(ctx, Job{Circuit: Figure1a(), Arch: QX4()})
	if err != nil {
		// Equally acceptable: Submit itself refused the dead context.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submit error %v does not wrap context.Canceled", err)
		}
		return
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if _, err := h.Wait(wctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait error %v does not wrap context.Canceled", err)
	}
	st := h.Stats()
	if st.State != JobDone {
		t.Errorf("state = %v, want done", st.State)
	}
	if st.Run != 0 {
		t.Errorf("never-ran job reports run time %v, want 0 (its lifetime is queue wait)", st.Run)
	}
}

// TestMapperTrySubmitBackpressure: with the single worker busy on a slow
// SAT solve and the one-slot queue occupied, TrySubmit fails immediately
// with ErrQueueFull instead of blocking — the signal qxmapd turns into a
// retryable 503. Cancellation then aborts the slow jobs promptly.
func TestMapperTrySubmitBackpressure(t *testing.T) {
	m, err := NewMapper(WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// QFT-4 on linear6 via the SAT engine takes seconds — long enough to
	// hold the worker while the queue check below runs in microseconds.
	slowJob := func() Job {
		return Job{
			Circuit: revlib.BuildQFT(4),
			Arch:    LinearArch(6),
			Opts:    Options{Method: MethodExact, Engine: EngineSAT, SkipVerify: true},
		}
	}
	bg := context.Background()
	h1, err := m.Submit(bg, slowJob())
	if err != nil {
		t.Fatal(err)
	}
	// Blocks until the worker dequeues h1, then occupies the only slot.
	h2, err := m.Submit(bg, slowJob())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.TrySubmit(bg, Job{Circuit: Figure1a(), Arch: QX4()}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("TrySubmit on full queue = %v, want ErrQueueFull", err)
	}

	h1.Cancel()
	h2.Cancel()
	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	for i, h := range []*JobHandle{h1, h2} {
		if _, err := h.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("job %d after Cancel: %v, want context.Canceled", i+1, err)
		}
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrySubmit(bg, slowJob()); !errors.Is(err, ErrMapperClosed) {
		t.Errorf("TrySubmit after Close = %v, want ErrMapperClosed", err)
	}
}

// TestMapperDefaultTimeout: WithDefaultTimeout bounds both the sync and
// the async paths; an immediate deadline surfaces context.DeadlineExceeded.
func TestMapperDefaultTimeout(t *testing.T) {
	m, err := NewMapper(WithDefaultTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Map(context.Background(), Figure1a(), QX4()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("sync error %v does not wrap DeadlineExceeded", err)
	}

	h, err := m.Submit(context.Background(), Job{Circuit: Figure1a(), Arch: QX4()})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Wait(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("async error %v does not wrap DeadlineExceeded", err)
	}

	// A context that already carries a deadline is left alone.
	cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
	defer ccancel()
	if _, err := m.Map(cctx, Figure1a(), QX4()); err != nil {
		t.Errorf("map with own deadline: %v", err)
	}
}

// TestMapperWaitContextExpiry: Wait honors its own context without
// consuming the job's eventual result.
func TestMapperWaitContextExpiry(t *testing.T) {
	m, err := NewMapper(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	h, err := m.Submit(context.Background(), Job{Circuit: Figure1a(), Arch: QX4(), Opts: Options{Engine: EngineDP}})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Wait(expired); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait with dead context: %v", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if _, err := h.Wait(wctx); err != nil {
		t.Errorf("second Wait: %v", err)
	}
}

// TestMapperClose: Close rejects new submissions, fails queued jobs, and
// is idempotent; every outstanding handle completes.
func TestMapperClose(t *testing.T) {
	m, err := NewMapper(WithWorkers(1), WithQueueDepth(32))
	if err != nil {
		t.Fatal(err)
	}

	var handles []*JobHandle
	for i := 0; i < 8; i++ {
		h, err := m.Submit(context.Background(), Job{Circuit: randomElementary(int64(i), 4, 10), Arch: QX4()})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	if _, err := m.Submit(context.Background(), Job{Circuit: Figure1a(), Arch: QX4()}); !errors.Is(err, ErrMapperClosed) {
		t.Errorf("Submit after Close = %v, want ErrMapperClosed", err)
	}
	if _, err := m.Map(context.Background(), Figure1a(), QX4()); !errors.Is(err, ErrMapperClosed) {
		t.Errorf("Map after Close = %v, want ErrMapperClosed", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err == nil && res == nil {
			t.Errorf("handle %d: nil result and nil error", i)
		}
		if err != nil && !errors.Is(err, ErrMapperClosed) && !errors.Is(err, context.Canceled) {
			t.Errorf("handle %d: unexpected error %v", i, err)
		}
	}
}

// TestJobStateStrings pins the wire names used by qxmapd's job endpoint.
func TestJobStateStrings(t *testing.T) {
	for state, want := range map[JobState]string{
		JobQueued: "queued", JobRunning: "running", JobDone: "done",
	} {
		if got := state.String(); got != want {
			t.Errorf("JobState(%d).String() = %q, want %q", int(state), got, want)
		}
	}
}

// TestArchitecturesListing: the architecture registry mirrors Methods —
// a canonical listing, and ArchByName errors that enumerate it.
func TestArchitecturesListing(t *testing.T) {
	names := Architectures()
	if len(names) == 0 {
		t.Fatal("Architectures() is empty")
	}
	if _, err := ArchByName(names[0]); err != nil {
		t.Errorf("first listed architecture %q does not resolve: %v", names[0], err)
	}
	_, err := ArchByName("bogus")
	if err == nil {
		t.Fatal("ArchByName accepted a bogus name")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("ArchByName error %q does not list %q", err, n)
		}
	}
}
