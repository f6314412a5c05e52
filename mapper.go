package qxmap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/portfolio"
	"repro/internal/store"
)

// ErrMapperClosed is returned by Mapper methods after Close: by Submit for
// new jobs, and as the failure of jobs that were still queued when the
// mapper shut down.
var ErrMapperClosed = errors.New("qxmap: mapper closed")

// ErrQueueFull is returned by TrySubmit when the scheduler queue has no
// free slot — the backpressure signal a service frontend turns into a
// retryable 503 instead of a blocked handler.
var ErrQueueFull = errors.New("qxmap: scheduler queue full")

// Mapper is an instance-scoped mapping client: it owns its configuration
// defaults, its portfolio result cache and a bounded asynchronous job
// scheduler. Two Mapper instances share no mutable state — caches, worker
// pools and statistics are fully isolated, so independent tenants (or
// tests) can tune concurrency and cache capacity without interfering.
//
// Construct one with NewMapper and functional options:
//
//	m, err := qxmap.NewMapper(
//		qxmap.WithMethod(qxmap.MethodExact),
//		qxmap.WithPortfolio(true),
//		qxmap.WithCacheSize(1024),
//		qxmap.WithWorkers(8),
//		qxmap.WithDefaultTimeout(30*time.Second),
//	)
//
// Synchronous mapping goes through Map (instance defaults) or MapWith
// (explicit per-call Options); batches through MapBatch; asynchronous jobs
// through Submit, which returns a JobHandle with Wait/Done/Cancel/Stats.
// All methods are safe for concurrent use.
type Mapper struct {
	opts    Options
	cache   *portfolio.Cache
	store   *store.Store // persistent result tier; nil without WithStore
	workers int
	timeout time.Duration

	// Cumulative work accounting across every pipeline trip (sync and
	// async), read back by Totals and the qxmapd /metrics endpoint.
	totMaps      atomic.Uint64
	totErrors    atomic.Uint64
	totMemHits   atomic.Uint64
	totDiskHits  atomic.Uint64
	totSolves    atomic.Uint64
	totEncodes   atomic.Uint64
	totConflicts atomic.Uint64
	totProbes    atomic.Uint64
	totDegAny    atomic.Uint64
	totDegHeur   atomic.Uint64
	inflight     atomic.Int64

	// Async scheduler: Submit enqueues JobHandles onto a bounded queue
	// drained by a lazily-started worker pool.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	queue      chan *JobHandle
	startOnce  sync.Once
	wg         sync.WaitGroup
	nextID     atomic.Uint64
	closed     atomic.Bool
	submitMu   sync.RWMutex // held (read) across enqueue; Close excludes it
}

// mapperConfig accumulates functional options before the Mapper is built.
type mapperConfig struct {
	opts       Options
	cacheSize  int
	workers    int
	queueDepth int
	timeout    time.Duration
	storeDir   string
	storeSync  bool
}

// DefaultQueueDepth is the async scheduler's queue capacity when
// WithQueueDepth is not given. A Submit against a full queue blocks
// (backpressure) until a worker frees a slot or the context expires.
const DefaultQueueDepth = 64

// Option configures a Mapper under construction.
type Option func(*mapperConfig) error

// WithMethod sets the default mapping algorithm for Map and for jobs that
// adopt the instance defaults.
func WithMethod(m Method) Option {
	return func(c *mapperConfig) error {
		if m < 0 || int(m) >= len(methodNames) {
			return fmt.Errorf("qxmap: WithMethod: unknown method %d", int(m))
		}
		c.opts.Method = m
		return nil
	}
}

// WithEngine sets the default exact backend (EngineSAT or EngineDP).
func WithEngine(e Engine) Option {
	return func(c *mapperConfig) error {
		if _, err := ParseEngine(e.String()); err != nil {
			return fmt.Errorf("qxmap: WithEngine: %w", err)
		}
		c.opts.Engine = e
		return nil
	}
}

// WithPortfolio turns on Portfolio mode for exact methods by default: the
// DP engine, with memoization in the instance's own cache (see
// WithCacheSize and Options.Portfolio).
func WithPortfolio(on bool) Option {
	return func(c *mapperConfig) error {
		c.opts.Portfolio = on
		return nil
	}
}

// WithCacheSize bounds the instance's portfolio cache to the given number
// of entries (0 selects portfolio.DefaultCacheSize). The cache belongs to
// this instance alone: no other Mapper can read or evict its entries.
func WithCacheSize(entries int) Option {
	return func(c *mapperConfig) error {
		if entries < 0 {
			return fmt.Errorf("qxmap: WithCacheSize: negative capacity %d", entries)
		}
		c.cacheSize = entries
		return nil
	}
}

// WithStore attaches a persistent result store rooted at dir (created if
// absent) as the tier below the in-memory cache: exact-family results are
// written through to disk and identical instances — same circuit skeleton,
// architecture and solve options, under the same schema version — are
// served from the store across process restarts, promoted back into the
// LRU on first hit. The Mapper owns the store: it is opened by NewMapper
// (a corrupt or unwritable directory fails construction) and closed by
// Close. Results solved under a conflict budget are never persisted.
func WithStore(dir string) Option {
	return func(c *mapperConfig) error {
		if dir == "" {
			return fmt.Errorf("qxmap: WithStore: empty directory")
		}
		c.storeDir = dir
		return nil
	}
}

// WithStoreSync makes every persistent-store write fsync before returning
// (durability over throughput). Off by default: the OS flushes in the
// background and crash-recovery truncates any torn tail, so an unsynced
// crash costs at most the most recent records, never store integrity.
func WithStoreSync(on bool) Option {
	return func(c *mapperConfig) error {
		c.storeSync = on
		return nil
	}
}

// WithWorkers bounds the mapper's concurrency: the async scheduler runs at
// most n jobs at once, and MapBatch defaults its pool to n when
// BatchOptions.Workers is unset. 0 (the default) means one worker per
// available core.
func WithWorkers(n int) Option {
	return func(c *mapperConfig) error {
		if n < 0 {
			return fmt.Errorf("qxmap: WithWorkers: negative count %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithQueueDepth sets the async scheduler's queue capacity (default
// DefaultQueueDepth). Submit blocks when the queue is full.
func WithQueueDepth(n int) Option {
	return func(c *mapperConfig) error {
		if n < 1 {
			return fmt.Errorf("qxmap: WithQueueDepth: capacity %d < 1", n)
		}
		c.queueDepth = n
		return nil
	}
}

// WithDefaultTimeout bounds every Map/MapWith call and every async job
// that does not already carry a deadline: the mapper applies
// context.WithTimeout(ctx, d) when ctx has none. 0 (the default) disables
// the bound. For async jobs the clock starts when the job begins running,
// not while it waits in the queue.
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *mapperConfig) error {
		if d < 0 {
			return fmt.Errorf("qxmap: WithDefaultTimeout: negative duration %v", d)
		}
		c.timeout = d
		return nil
	}
}

// WithVerify sets the default verification policy: on (the default)
// checks every mapped circuit against its input (Options.SkipVerify
// describes the checks); off skips them.
func WithVerify(on bool) Option {
	return func(c *mapperConfig) error {
		c.opts.SkipVerify = !on
		return nil
	}
}

// WithOptimize enables the post-mapping peephole optimizer by default.
func WithOptimize(on bool) Option {
	return func(c *mapperConfig) error {
		c.opts.Optimize = on
		return nil
	}
}

// WithLowerBound sets the default for the SAT engine's admissible
// lower-bound seeding: on (the default) derives a coupling-graph distance
// bound that seeds the descent's lower end; off disables it
// (Options.SATNoLowerBound) — costs are unchanged, only more bound probes
// are spent.
func WithLowerBound(on bool) Option {
	return func(c *mapperConfig) error {
		c.opts.SATNoLowerBound = !on
		return nil
	}
}

// WithLadder enables the degradation ladder by default for every Map call
// and job that adopts the instance defaults (Options.Ladder): exhausted
// exact solves return the best valid plan found — anytime incumbent or
// heuristic fallback — instead of an error, reported through
// Stats.Degradation. A no-op under generous deadlines.
func WithLadder(on bool) Option {
	return func(c *mapperConfig) error {
		c.opts.Ladder = on
		return nil
	}
}

// WithCostModel sets the default cost model for every Map call and job
// that adopts the instance defaults: nil (the default) keeps the paper's
// uniform 7/4 objective, a model from NewCostModel/ParseCostModel/
// LoadCalibration makes every method optimize the weighted objective
// (Options.CostModel).
func WithCostModel(cm *CostModel) Option {
	return func(c *mapperConfig) error {
		c.opts.CostModel = cm
		return nil
	}
}

// WithHeuristicRuns sets the default number of stochastic-heuristic seeds.
func WithHeuristicRuns(n int) Option {
	return func(c *mapperConfig) error {
		if n < 0 {
			return fmt.Errorf("qxmap: WithHeuristicRuns: negative count %d", n)
		}
		c.opts.HeuristicRuns = n
		return nil
	}
}

// WithSeed sets the default random seed for the heuristic methods.
func WithSeed(seed int64) Option {
	return func(c *mapperConfig) error {
		c.opts.Seed = seed
		return nil
	}
}

// WithLookahead sets the default A*/SABRE lookahead weight.
func WithLookahead(w float64) Option {
	return func(c *mapperConfig) error {
		c.opts.Lookahead = w
		return nil
	}
}

// NewMapper builds a Mapper from functional options. The zero
// configuration — NewMapper() — is the zero Options (exact method, SAT
// engine, verification on), one worker per core, a
// portfolio.DefaultCacheSize-entry cache and no default timeout.
func NewMapper(options ...Option) (*Mapper, error) {
	cfg := mapperConfig{queueDepth: DefaultQueueDepth}
	for _, o := range options {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var st *store.Store
	if cfg.storeDir != "" {
		var err error
		st, err = store.Open(cfg.storeDir, store.Options{SyncWrites: cfg.storeSync})
		if err != nil {
			return nil, fmt.Errorf("qxmap: opening result store: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Mapper{
		opts:       cfg.opts,
		cache:      portfolio.NewCache(cfg.cacheSize),
		store:      st,
		workers:    workers,
		timeout:    cfg.timeout,
		lifeCtx:    ctx,
		lifeCancel: cancel,
		queue:      make(chan *JobHandle, cfg.queueDepth),
	}, nil
}

// Options returns a copy of the instance's default Options.
func (m *Mapper) Options() Options { return m.opts }

// Workers returns the mapper's concurrency bound.
func (m *Mapper) Workers() int { return m.workers }

// Map maps the circuit onto the architecture with the instance's default
// Options, under the instance's default timeout (when set and ctx carries
// no deadline). The input must be elementary (single-qubit gates and CNOTs
// only).
func (m *Mapper) Map(ctx context.Context, c *Circuit, a *Architecture) (*Result, error) {
	return m.MapWith(ctx, c, a, m.opts)
}

// MapWith maps the circuit with explicit per-call Options, overriding the
// instance defaults entirely; only the portfolio cache (and the default
// timeout) still come from the instance.
func (m *Mapper) MapWith(ctx context.Context, c *Circuit, a *Architecture, opts Options) (*Result, error) {
	if m.closed.Load() {
		return nil, ErrMapperClosed
	}
	ctx, cancel := m.withDefaultTimeout(ctx)
	defer cancel()
	return m.mapPipeline(ctx, c, a, opts)
}

// withDefaultTimeout applies the instance's default timeout when the
// context does not already carry a deadline.
func (m *Mapper) withDefaultTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, m.timeout)
		}
	}
	return ctx, func() {}
}

// CacheStats reports both tiers of the instance's result cache: the
// in-memory LRU's cumulative hits/misses and entry count, and — when a
// persistent store is attached (WithStore) — the disk tier's operation
// counters and physical layout.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
	// DiskEnabled reports whether a persistent store is attached; the
	// remaining fields are zero when it is not.
	DiskEnabled bool
	// DiskHits/DiskMisses/DiskWrites count store lookups that found a
	// record, lookups that fell through to a solve, and records written.
	DiskHits, DiskMisses, DiskWrites uint64
	// DiskRecords/DiskSegments/DiskLiveBytes/DiskDeadBytes describe the
	// store's physical layout; DiskCompactions counts completed
	// compaction passes since the store was opened.
	DiskRecords     int
	DiskSegments    int
	DiskLiveBytes   int64
	DiskDeadBytes   int64
	DiskCompactions uint64
}

// CacheStats returns a snapshot of the instance's two-tier result-cache
// counters. Two Mapper instances never share these: a hit on one leaves
// the other's statistics untouched.
func (m *Mapper) CacheStats() CacheStats {
	hits, misses := m.cache.Stats()
	cs := CacheStats{Hits: hits, Misses: misses, Entries: m.cache.Len()}
	if m.store != nil {
		st := m.store.Stats()
		cs.DiskEnabled = true
		cs.DiskHits = st.Hits
		cs.DiskMisses = st.Gets - st.Hits
		cs.DiskWrites = st.Puts
		cs.DiskRecords = st.Records
		cs.DiskSegments = st.Segments
		cs.DiskLiveBytes = st.LiveBytes
		cs.DiskDeadBytes = st.DeadBytes
		cs.DiskCompactions = st.Compactions
	}
	return cs
}

// Totals are the mapper's cumulative pipeline counters since construction,
// aggregated over every Map/MapWith call and async job: how many trips ran
// and failed, where cache hits were served from, and the SAT work behind
// the solved ones. A service exposes these as monotonic metrics.
type Totals struct {
	// Maps counts completed pipeline trips (successful or not); Errors
	// the subset that returned an error.
	Maps, Errors uint64
	// MemoryHits and DiskHits count trips answered by the respective
	// cache tier.
	MemoryHits, DiskHits uint64
	// SATSolves/SATEncodes/SATConflicts/BoundProbes aggregate the solver
	// counters of every trip (zero contribution from cache hits and
	// heuristic methods).
	SATSolves, SATEncodes uint64
	SATConflicts          uint64
	BoundProbes           uint64
	// DegradedAnytime and DegradedHeuristic count successful trips that
	// the degradation ladder softened (Options.Ladder): anytime
	// incumbents and heuristic fallback plans respectively. Both are a
	// strict subset of Maps − Errors.
	DegradedAnytime   uint64
	DegradedHeuristic uint64
}

// Totals returns a snapshot of the mapper's cumulative work counters.
func (m *Mapper) Totals() Totals {
	return Totals{
		Maps:         m.totMaps.Load(),
		Errors:       m.totErrors.Load(),
		MemoryHits:   m.totMemHits.Load(),
		DiskHits:     m.totDiskHits.Load(),
		SATSolves:    m.totSolves.Load(),
		SATEncodes:   m.totEncodes.Load(),
		SATConflicts: m.totConflicts.Load(),
		BoundProbes:  m.totProbes.Load(),

		DegradedAnytime:   m.totDegAny.Load(),
		DegradedHeuristic: m.totDegHeur.Load(),
	}
}

// recordTotals folds one finished pipeline trip into the cumulative
// counters.
func (m *Mapper) recordTotals(res *Result, err error) {
	m.totMaps.Add(1)
	if err != nil {
		m.totErrors.Add(1)
		return
	}
	switch res.CacheTier {
	case portfolio.TierMemory:
		m.totMemHits.Add(1)
	case portfolio.TierDisk:
		m.totDiskHits.Add(1)
	}
	m.totSolves.Add(uint64(res.Stats.SATSolves))
	m.totEncodes.Add(uint64(res.Stats.SATEncodes))
	m.totConflicts.Add(uint64(res.Stats.SATConflicts))
	m.totProbes.Add(uint64(res.Stats.BoundProbes))
	switch res.Stats.Degradation {
	case portfolio.DegradationAnytime:
		m.totDegAny.Add(1)
	case portfolio.DegradationHeuristic:
		m.totDegHeur.Add(1)
	}
}

// QueueStats is a point-in-time view of the async scheduler and the
// pipeline load: jobs parked in the bounded queue, the queue's capacity,
// the worker-pool bound, and pipelines executing right now (synchronous
// calls included — InFlight can exceed Workers under concurrent Map use).
type QueueStats struct {
	Depth    int
	Capacity int
	Workers  int
	InFlight int
}

// QueueStats returns a snapshot of the scheduler queue and pipeline load.
func (m *Mapper) QueueStats() QueueStats {
	return QueueStats{
		Depth:    len(m.queue),
		Capacity: cap(m.queue),
		Workers:  m.workers,
		InFlight: int(m.inflight.Load()),
	}
}

// Store returns the attached persistent result store, or nil. Callers may
// trigger maintenance (Store.Compact, Store.Sync) but must not Close it —
// the Mapper owns its lifecycle.
func (m *Mapper) Store() *store.Store { return m.store }

// Close shuts the mapper down: new Submits fail with ErrMapperClosed,
// running jobs are cancelled, jobs still queued finish with
// ErrMapperClosed, and the persistent store (if attached) is synced and
// closed. Close blocks until the worker pool has drained and is
// idempotent.
func (m *Mapper) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.lifeCancel()
	// Exclude in-flight Submits, then stop the pool and fail the backlog.
	m.submitMu.Lock()
	defer m.submitMu.Unlock()
	m.wg.Wait()
	for {
		select {
		case h := <-m.queue:
			h.finish(nil, ErrMapperClosed)
		default:
			if m.store != nil {
				return m.store.Close()
			}
			return nil
		}
	}
}

// JobState is the lifecycle position of an asynchronous job.
type JobState int

const (
	// JobQueued: submitted, waiting for a scheduler slot.
	JobQueued JobState = iota
	// JobRunning: executing on a worker.
	JobRunning
	// JobDone: finished — successfully, with an error, or cancelled.
	JobDone
)

// String returns the state's wire name ("queued", "running", "done").
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// JobStats is a point-in-time snapshot of one asynchronous job: its state,
// how long it waited in the queue, how long it has been (or was) running,
// and — once successfully done — the pipeline Stats of its Result.
type JobStats struct {
	State JobState
	// Queued is the time between Submit and the job starting (or now,
	// while still waiting).
	Queued time.Duration
	// Run is the execution time so far (final once State is JobDone).
	Run time.Duration
	// Pipeline echoes Result.Stats for a successfully finished job.
	Pipeline Stats
}

// JobHandle tracks one asynchronous mapping job submitted with
// Mapper.Submit. All methods are safe for concurrent use.
type JobHandle struct {
	id     uint64
	job    Job
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	res       *Result
	err       error
}

// ID returns the job's mapper-unique identifier.
func (h *JobHandle) ID() uint64 { return h.id }

// Job returns the submitted job.
func (h *JobHandle) Job() Job { return h.job }

// Done returns a channel closed when the job finishes (in any way).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Cancel aborts the job: a queued job finishes without running, a running
// job is interrupted through context cancellation. Cancel is idempotent
// and safe after completion.
func (h *JobHandle) Cancel() { h.cancel() }

// Wait blocks until the job finishes or ctx expires, returning the job's
// Result/error. Waiting does not consume the result: any number of callers
// may Wait on the same handle.
func (h *JobHandle) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-h.done:
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.res, h.err
	case <-ctx.Done():
		return nil, fmt.Errorf("qxmap: waiting for job %d: %w", h.id, ctx.Err())
	}
}

// Stats returns a snapshot of the job's timing and state.
func (h *JobHandle) Stats() JobStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := JobStats{State: h.state}
	switch h.state {
	case JobQueued:
		s.Queued = time.Since(h.submitted)
	case JobRunning:
		s.Queued = h.started.Sub(h.submitted)
		s.Run = time.Since(h.started)
	case JobDone:
		s.Queued = h.started.Sub(h.submitted)
		s.Run = h.finished.Sub(h.started)
		if h.res != nil {
			s.Pipeline = h.res.Stats
		}
	}
	return s
}

// markRunning transitions the handle to JobRunning.
func (h *JobHandle) markRunning() {
	h.mu.Lock()
	h.state = JobRunning
	h.started = time.Now()
	h.mu.Unlock()
}

// finish records the outcome exactly once and closes the done channel.
func (h *JobHandle) finish(res *Result, err error) {
	h.mu.Lock()
	if h.state == JobDone {
		h.mu.Unlock()
		return
	}
	h.state = JobDone
	h.finished = time.Now()
	if h.started.IsZero() {
		// Never ran: the whole lifetime was queue wait, zero run time.
		h.started = h.finished
	}
	h.res, h.err = res, err
	h.mu.Unlock()
	h.cancel() // release the job context's resources
	close(h.done)
}

// Submit enqueues an asynchronous mapping job and returns its handle. The
// job's Opts are used verbatim (start from Mapper.Options() to adopt the
// instance defaults). The scheduler is bounded: when the queue is full,
// Submit blocks until a slot frees, ctx expires, or the mapper closes. The
// job executes under a context derived from ctx — cancelling ctx, calling
// JobHandle.Cancel, or closing the mapper aborts it; the instance's
// default timeout (if any) starts when execution starts.
func (m *Mapper) Submit(ctx context.Context, job Job) (*JobHandle, error) {
	m.submitMu.RLock()
	defer m.submitMu.RUnlock()
	if m.closed.Load() {
		return nil, ErrMapperClosed
	}
	m.startOnce.Do(m.startWorkers)
	h := m.newHandle(ctx, job)
	select {
	case m.queue <- h:
		return h, nil
	case <-m.lifeCtx.Done():
		h.cancel()
		return nil, ErrMapperClosed
	case <-ctx.Done():
		h.cancel()
		return nil, fmt.Errorf("qxmap: submit: %w", ctx.Err())
	}
}

// TrySubmit enqueues like Submit but never blocks: when the scheduler
// queue has no free slot it returns ErrQueueFull immediately. Service
// frontends use it to convert backpressure into a retryable rejection
// instead of a handler goroutine parked on a full queue.
func (m *Mapper) TrySubmit(ctx context.Context, job Job) (*JobHandle, error) {
	m.submitMu.RLock()
	defer m.submitMu.RUnlock()
	if m.closed.Load() {
		return nil, ErrMapperClosed
	}
	m.startOnce.Do(m.startWorkers)
	h := m.newHandle(ctx, job)
	select {
	case m.queue <- h:
		return h, nil
	case <-m.lifeCtx.Done():
		h.cancel()
		return nil, ErrMapperClosed
	default:
		h.cancel()
		return nil, ErrQueueFull
	}
}

// newHandle builds a queued JobHandle whose context derives from ctx.
func (m *Mapper) newHandle(ctx context.Context, job Job) *JobHandle {
	jctx, cancel := context.WithCancel(ctx)
	return &JobHandle{
		id:        m.nextID.Add(1),
		job:       job,
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		submitted: time.Now(),
		state:     JobQueued,
	}
}

// startWorkers launches the scheduler pool (once, on first Submit).
func (m *Mapper) startWorkers() {
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.workLoop()
		}()
	}
}

// workLoop drains the queue until the mapper closes.
func (m *Mapper) workLoop() {
	for {
		select {
		case <-m.lifeCtx.Done():
			return
		case h := <-m.queue:
			m.runHandle(h)
		}
	}
}

// runHandle executes one queued job on a worker. A panic escaping the
// pipeline's own recover boundary (or the handle bookkeeping) fails the
// job rather than the worker goroutine: the scheduler must keep draining
// whatever one poisoned job does.
func (m *Mapper) runHandle(h *JobHandle) {
	defer func() {
		if r := recover(); r != nil {
			h.finish(nil, fmt.Errorf("qxmap: job panicked: %v", r))
		}
	}()
	// A worker's select may dequeue a job even after Close cancelled
	// lifeCtx; honor the Close contract (queued jobs fail with
	// ErrMapperClosed, not a generic cancellation) before starting it.
	if m.lifeCtx.Err() != nil {
		h.finish(nil, ErrMapperClosed)
		return
	}
	if err := h.ctx.Err(); err != nil {
		h.finish(nil, fmt.Errorf("qxmap: job canceled before start: %w", err))
		return
	}
	h.markRunning()
	// Closing the mapper aborts running jobs too.
	stop := context.AfterFunc(m.lifeCtx, h.cancel)
	defer stop()
	ctx, cancel := m.withDefaultTimeout(h.ctx)
	defer cancel()
	res, err := m.mapPipeline(ctx, h.job.Circuit, h.job.Arch, h.job.Opts)
	h.finish(res, err)
}
