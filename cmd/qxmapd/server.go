package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	qxmap "repro"
)

// serverConfig tunes one qxmapd instance.
type serverConfig struct {
	// workers bounds the mapper's concurrency (0 = one per core).
	workers int
	// cacheSize bounds the portfolio cache (0 = library default).
	cacheSize int
	// portfolio enables portfolio solving by default (requests may still
	// override per call).
	portfolio bool
	// ladder enables the degradation ladder (-ladder, default on): exact
	// solves that hit the request deadline degrade to a valid anytime or
	// heuristic plan (reported in the result's degradation field) instead
	// of failing with 504.
	ladder bool
	// costModel, when non-nil, makes every request optimize the weighted
	// objective instead of the paper's uniform 7/4 one (-cost-model /
	// -calibration).
	costModel *qxmap.CostModel
	// reqTimeout bounds each synchronous request's mapping work; a request
	// may ask for less via timeout_ms but never for more. Expiry returns
	// 504 Gateway Timeout. 0 disables the bound.
	reqTimeout time.Duration
	// maxBody caps request body size in bytes (default 8 MiB).
	maxBody int64
	// maxJobs caps the async job records retained for polling (default
	// 1024): when exceeded, the oldest finished jobs are evicted. Queued
	// and running jobs are never evicted (they are bounded by the
	// scheduler's queue depth plus the worker count).
	maxJobs int
	// noLowerBound disables the SAT engine's admissible lower-bound
	// seeding for every request served by this instance (the
	// -lower-bound=off escape hatch).
	noLowerBound bool
	// storeDir, when non-empty, attaches a persistent result store at
	// that directory (-store): exact results survive restarts and the
	// disk tier serves identical instances across processes. storeSync
	// additionally fsyncs every store write (-store-sync).
	storeDir  string
	storeSync bool
	// tenantRPS/tenantBurst rate-limit the mutating endpoints per
	// X-Tenant header with a token bucket (0 rps disables);
	// tenantQuota/tenantWindow bound total jobs per tenant per fixed
	// window (0 quota disables). Rejections are 429 with Retry-After.
	tenantRPS    float64
	tenantBurst  int
	tenantQuota  int
	tenantWindow time.Duration
}

// server is the qxmapd HTTP handler: a thin JSON shell over an
// instance-scoped qxmap.Mapper. Synchronous requests run on the request
// context; asynchronous jobs (async: true) run on the server's lifetime
// context through the mapper's bounded scheduler and are polled via
// GET /v1/jobs/{id}.
type server struct {
	cfg    serverConfig
	mapper *qxmap.Mapper
	mux    *http.ServeMux

	baseCtx    context.Context // async job lifetime: the server's, not the request's
	baseCancel context.CancelFunc

	jobMu   sync.RWMutex
	jobs    map[string]trackedJob
	jobIDs  []string // insertion order, for oldest-finished eviction
	nextJob atomic.Uint64

	// nextReq numbers every request for the X-Request-ID header; panics
	// counts handler panics contained by the ServeHTTP recover boundary.
	nextReq atomic.Uint64
	panics  atomic.Uint64

	limiter     *tenantLimiter
	rateLimited atomic.Uint64

	started time.Time
}

// newServer builds the handler and its dedicated Mapper.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.maxBody <= 0 {
		cfg.maxBody = 8 << 20
	}
	if cfg.maxJobs <= 0 {
		cfg.maxJobs = 1024
	}
	mopts := []qxmap.Option{
		qxmap.WithWorkers(cfg.workers),
		qxmap.WithCacheSize(cfg.cacheSize),
		qxmap.WithPortfolio(cfg.portfolio),
		qxmap.WithLadder(cfg.ladder),
		qxmap.WithCostModel(cfg.costModel),
		qxmap.WithLowerBound(!cfg.noLowerBound),
		// Bounds async jobs too: the mapper applies this at run start to
		// any job context that carries no deadline of its own, so a stuck
		// solve cannot pin a scheduler worker forever. Synchronous
		// requests already carry the request deadline and are unaffected.
		qxmap.WithDefaultTimeout(cfg.reqTimeout),
	}
	if cfg.storeDir != "" {
		mopts = append(mopts, qxmap.WithStore(cfg.storeDir), qxmap.WithStoreSync(cfg.storeSync))
	}
	m, err := qxmap.NewMapper(mopts...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		cfg:        cfg,
		mapper:     m,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]trackedJob),
		limiter:    newTenantLimiter(cfg.tenantRPS, cfg.tenantBurst, cfg.tenantQuota, cfg.tenantWindow),
		started:    time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/methods", s.handleMethods)
	mux.HandleFunc("GET /v1/archs", s.handleArchs)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux = mux
	return s, nil
}

// ServeHTTP stamps every request with an X-Request-ID and contains handler
// panics: a panicking handler yields a 500 naming the request id (for log
// correlation) while the process keeps serving. The mapping pipeline has
// its own recover boundaries, so this one only catches what slips past
// them — if the handler already streamed part of a response the 500 body
// may append to it, which is the best any post-hoc boundary can do.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("req-%d", s.nextReq.Add(1))
	w.Header().Set("X-Request-ID", id)
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			log.Printf("qxmapd: %s: panic serving %s %s: %v", id, r.Method, r.URL.Path, rec)
			s.writeJSON(w, http.StatusInternalServerError, errorBody{
				Error:     fmt.Sprintf("internal error: the request handler panicked (%v)", rec),
				RequestID: id,
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// close stops async jobs and the underlying mapper. Called after the HTTP
// listener has drained.
func (s *server) close() error {
	s.baseCancel()
	return s.mapper.Close()
}

// mapRequest is the JSON body of POST /v1/map and of each element of a
// batch request's jobs array. Method, engine and portfolio default to the
// server's configuration when omitted.
type mapRequest struct {
	Name          string  `json:"name,omitempty"`
	QASM          string  `json:"qasm"`
	Arch          string  `json:"arch"`
	Method        string  `json:"method,omitempty"`
	Engine        string  `json:"engine,omitempty"`
	Portfolio     *bool   `json:"portfolio,omitempty"`
	Optimize      bool    `json:"optimize,omitempty"`
	SkipVerify    bool    `json:"skip_verify,omitempty"`
	Runs          int     `json:"runs,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Lookahead     float64 `json:"lookahead,omitempty"`
	InitialLayout []int   `json:"initial_layout,omitempty"`
	// TimeoutMS lowers the server's request timeout for this call.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async (map endpoint only) submits the job to the mapper's scheduler
	// and returns 202 with a job id for GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// IncludeQASM controls whether the mapped circuit is rendered into the
	// response (default true).
	IncludeQASM *bool `json:"include_qasm,omitempty"`
}

// batchRequest is the JSON body of POST /v1/batch.
type batchRequest struct {
	Jobs         []mapRequest `json:"jobs"`
	Workers      int          `json:"workers,omitempty"`
	JobTimeoutMS int64        `json:"job_timeout_ms,omitempty"`
	IncludeQASM  *bool        `json:"include_qasm,omitempty"`
}

// trackedJob pairs an async job handle with the presentation options and
// the request facts it was submitted with, so GET /v1/jobs can list and
// filter without reaching into the handle's options.
type trackedJob struct {
	h           *qxmap.JobHandle
	includeQASM bool
	name        string
	method      string
	arch        string
	tenant      string
	created     time.Time
}

// jobStatus is the JSON body of GET /v1/jobs/{id} and of 202 responses.
type jobStatus struct {
	JobID    string            `json:"job_id"`
	State    string            `json:"state"`
	QueuedNS int64             `json:"queued_ns"`
	RunNS    int64             `json:"run_ns"`
	Result   *qxmap.ResultJSON `json:"result,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// errorBody is the JSON shape of every non-2xx response. 504s carry the
// degradation fields ("none" means no ladder rung could soften the
// timeout) and a retry hint mirroring the Retry-After header; 500s from
// the panic boundary carry the request id.
type errorBody struct {
	Error          string `json:"error"`
	RequestID      string `json:"request_id,omitempty"`
	Degradation    string `json:"degradation,omitempty"`
	RetryAfterHint int64  `json:"retry_after_hint,omitempty"`
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

func (s *server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody strictly decodes one JSON value, bounding the body size.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data after JSON value")
	}
	return nil
}

// writeDecodeError maps a decodeBody failure to its HTTP status: 413 when
// the body blew the -max-body limit (with a message naming the limit, so
// clients know which knob to ask about), 400 for everything else.
func (s *server) writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the server's %d-byte limit (-max-body)", s.cfg.maxBody))
		return
	}
	s.writeError(w, http.StatusBadRequest, err)
}

// tenantOf resolves the request's tenant: the X-Tenant header, or
// "default" for requests that carry none (they all share one budget).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit charges the request's tenant cost units against the rate limiter.
// On rejection it writes the 429 itself — with Retry-After in whole
// seconds (rounded up, minimum 1, as the header cannot express fractions)
// — and returns false.
func (s *server) admit(w http.ResponseWriter, r *http.Request, cost int) bool {
	tenant := tenantOf(r)
	ok, wait := s.limiter.allow(tenant, cost)
	if ok {
		return true
	}
	s.rateLimited.Add(1)
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	s.writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("tenant %q exceeded its request budget; retry after %ds", tenant, secs))
	return false
}

// buildJob validates one mapRequest into a qxmap.Job. Unknown method or
// architecture names fail with the registry errors, which enumerate every
// valid name.
func (s *server) buildJob(req mapRequest) (qxmap.Job, error) {
	if req.QASM == "" {
		return qxmap.Job{}, errors.New("missing \"qasm\" field")
	}
	if req.Arch == "" {
		return qxmap.Job{}, fmt.Errorf("missing \"arch\" field (valid: %s)", strings.Join(qxmap.Architectures(), ", "))
	}
	a, err := qxmap.ArchByName(req.Arch)
	if err != nil {
		return qxmap.Job{}, err
	}
	c, err := qxmap.ParseQASM(req.QASM)
	if err != nil {
		return qxmap.Job{}, err
	}
	opts := s.mapper.Options()
	if req.Method != "" {
		if opts.Method, err = qxmap.ParseMethod(req.Method); err != nil {
			return qxmap.Job{}, err
		}
	}
	if req.Engine != "" {
		if opts.Engine, err = qxmap.ParseEngine(req.Engine); err != nil {
			return qxmap.Job{}, err
		}
	}
	if req.Portfolio != nil {
		opts.Portfolio = *req.Portfolio
	}
	if req.Optimize {
		opts.Optimize = true
	}
	if req.SkipVerify {
		opts.SkipVerify = true
	}
	if req.Runs > 0 {
		opts.HeuristicRuns = req.Runs
	}
	if req.Seed != 0 {
		opts.Seed = req.Seed
	}
	if req.Lookahead != 0 {
		opts.Lookahead = req.Lookahead
	}
	if req.InitialLayout != nil {
		opts.InitialLayout = req.InitialLayout
	}
	return qxmap.Job{Name: req.Name, Circuit: c, Arch: a, Opts: opts}, nil
}

// requestTimeout resolves the effective deadline of one synchronous call:
// the server's bound, lowered (never raised) by the request's timeout_ms.
func (s *server) requestTimeout(ms int64) time.Duration {
	d := s.cfg.reqTimeout
	if ms > 0 {
		req := time.Duration(ms) * time.Millisecond
		if d == 0 || req < d {
			d = req
		}
	}
	return d
}

// mapStatus translates a mapping failure into an HTTP status: timeouts map
// to 504 Gateway Timeout, cancellation (shutdown, client gone) to 503, and
// everything else — invalid instances, unsatisfiable constraints — to 422.
func mapStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, qxmap.ErrMapperClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// retryAfterSecs suggests when a timed-out request is worth retrying: half
// the server's request budget, clamped to [1s, 60s]. Whole seconds because
// the Retry-After header cannot express fractions.
func (s *server) retryAfterSecs() int64 {
	secs := int64(s.cfg.reqTimeout / (2 * time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeMapError renders a synchronous mapping failure. Timeouts become the
// structured 504 shape — degradation "none" (with the ladder on, a timeout
// reaching this path means even the heuristic rung produced nothing) plus
// a Retry-After header mirrored in retry_after_hint — so clients never
// have to parse error prose to schedule a retry.
func (s *server) writeMapError(w http.ResponseWriter, err error) {
	status := mapStatus(err)
	body := errorBody{Error: err.Error()}
	if status == http.StatusGatewayTimeout {
		secs := s.retryAfterSecs()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		body.Degradation = "none"
		body.RetryAfterHint = secs
	}
	s.writeJSON(w, status, body)
}

func (s *server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req mapRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if !s.admit(w, r, 1) {
		return
	}
	job, err := s.buildJob(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	if req.Async {
		if req.TimeoutMS != 0 {
			// An async job's clock starts when it leaves the queue, so a
			// request-scoped timeout_ms cannot be honored; jobs are bounded
			// by the server's -timeout instead. Reject rather than drop.
			s.writeError(w, http.StatusBadRequest,
				errors.New("timeout_ms is not valid with async: true (async jobs are bounded by the server's -timeout)"))
			return
		}
		// TrySubmit on the server's lifetime context: the job must outlive
		// this request, and a full scheduler queue is a retryable 503
		// rather than a handler parked on the queue.
		h, err := s.mapper.TrySubmit(s.baseCtx, job)
		if err != nil {
			s.writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		id := fmt.Sprintf("job-%d", s.nextJob.Add(1))
		s.trackJob(id, trackedJob{
			h:           h,
			includeQASM: req.IncludeQASM == nil || *req.IncludeQASM,
			name:        req.Name,
			method:      job.Opts.Method.String(),
			arch:        req.Arch,
			tenant:      tenantOf(r),
			created:     time.Now(),
		})
		s.writeJSON(w, http.StatusAccepted, jobStatus{JobID: id, State: h.Stats().State.String()})
		return
	}

	ctx := r.Context()
	if d := s.requestTimeout(req.TimeoutMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, err := s.mapper.MapWith(ctx, job.Circuit, job.Arch, job.Opts)
	if err != nil {
		s.writeMapError(w, err)
		return
	}
	body, err := res.JSON(req.IncludeQASM == nil || *req.IncludeQASM)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("empty batch: the \"jobs\" array is required"))
		return
	}
	// A batch consumes one budget unit per job, so splitting work across
	// batch requests and fanning it out inside one are charged the same.
	if !s.admit(w, r, len(req.Jobs)) {
		return
	}
	jobs := make([]qxmap.Job, len(req.Jobs))
	for i, jr := range req.Jobs {
		// Reject per-job fields that only make sense at the top level
		// instead of silently discarding them.
		if jr.Async {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: async jobs are not valid inside a batch", i))
			return
		}
		if jr.TimeoutMS != 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: timeout_ms is not valid inside a batch; use the top-level job_timeout_ms", i))
			return
		}
		if jr.IncludeQASM != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: include_qasm is not valid inside a batch; use the top-level include_qasm", i))
			return
		}
		job, err := s.buildJob(jr)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return
		}
		jobs[i] = job
	}

	ctx := r.Context()
	if s.cfg.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.reqTimeout)
		defer cancel()
	}
	results := s.mapper.MapBatch(ctx, jobs, qxmap.BatchOptions{
		Workers:    req.Workers,
		JobTimeout: time.Duration(req.JobTimeoutMS) * time.Millisecond,
	})
	report, err := qxmap.BatchReport(results, req.IncludeQASM == nil || *req.IncludeQASM)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, report)
}

// trackJob records a job for polling, evicting the oldest finished
// records once the retention cap is exceeded. Unfinished jobs are kept
// regardless (their count is bounded by the scheduler).
func (s *server) trackJob(id string, tj trackedJob) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs[id] = tj
	s.jobIDs = append(s.jobIDs, id)
	// Compact ids orphaned by DELETE /v1/jobs/{id}, which shrinks the map
	// without touching the order slice.
	if len(s.jobIDs) > 2*s.cfg.maxJobs {
		kept := s.jobIDs[:0]
		for _, old := range s.jobIDs {
			if _, ok := s.jobs[old]; ok {
				kept = append(kept, old)
			}
		}
		s.jobIDs = kept
	}
	if len(s.jobs) <= s.cfg.maxJobs {
		return
	}
	kept := s.jobIDs[:0]
	for _, old := range s.jobIDs {
		otj, ok := s.jobs[old]
		if !ok {
			continue // already deleted via DELETE /v1/jobs/{id}
		}
		if len(s.jobs) > s.cfg.maxJobs && otj.h.Stats().State == qxmap.JobDone {
			delete(s.jobs, old)
			continue
		}
		kept = append(kept, old)
	}
	s.jobIDs = kept
}

func (s *server) lookupJob(id string) (trackedJob, bool) {
	s.jobMu.RLock()
	defer s.jobMu.RUnlock()
	tj, ok := s.jobs[id]
	return tj, ok
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tj, ok := s.lookupJob(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job id %q", id))
		return
	}
	st := tj.h.Stats()
	body := jobStatus{
		JobID:    id,
		State:    st.State.String(),
		QueuedNS: st.Queued.Nanoseconds(),
		RunNS:    st.Run.Nanoseconds(),
	}
	if st.State == qxmap.JobDone {
		res, err := tj.h.Wait(r.Context()) // immediate: the job is done
		switch {
		case err != nil:
			body.Error = err.Error()
		default:
			if body.Result, err = res.JSON(tj.includeQASM); err != nil {
				s.writeError(w, http.StatusInternalServerError, err)
				return
			}
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

// jobSummary is one row of GET /v1/jobs.
type jobSummary struct {
	JobID    string `json:"job_id"`
	Name     string `json:"name,omitempty"`
	State    string `json:"state"`
	Method   string `json:"method"`
	Arch     string `json:"arch"`
	Tenant   string `json:"tenant"`
	Created  string `json:"created"`
	QueuedNS int64  `json:"queued_ns"`
	RunNS    int64  `json:"run_ns"`
}

// handleJobsList serves GET /v1/jobs?state=&method=&arch=&tenant=: every
// tracked async job in submission order, optionally filtered. Filters are
// exact-match; an unknown state value is a 400 (silently matching nothing
// would read as "no such jobs").
func (s *server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state, method, archName, tenant := q.Get("state"), q.Get("method"), q.Get("arch"), q.Get("tenant")
	switch state {
	case "", "queued", "running", "done":
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown state filter %q (valid: queued, running, done)", state))
		return
	}

	s.jobMu.RLock()
	ids := make([]string, len(s.jobIDs))
	copy(ids, s.jobIDs)
	jobs := make(map[string]trackedJob, len(s.jobs))
	for id, tj := range s.jobs {
		jobs[id] = tj
	}
	s.jobMu.RUnlock()

	list := make([]jobSummary, 0, len(jobs))
	for _, id := range ids {
		tj, ok := jobs[id]
		if !ok {
			continue // deleted; its id lingers in the order slice
		}
		st := tj.h.Stats()
		if (state != "" && st.State.String() != state) ||
			(method != "" && tj.method != method) ||
			(archName != "" && tj.arch != archName) ||
			(tenant != "" && tj.tenant != tenant) {
			continue
		}
		list = append(list, jobSummary{
			JobID:    id,
			Name:     tj.name,
			State:    st.State.String(),
			Method:   tj.method,
			Arch:     tj.arch,
			Tenant:   tj.tenant,
			Created:  tj.created.UTC().Format(time.RFC3339Nano),
			QueuedNS: st.Queued.Nanoseconds(),
			RunNS:    st.Run.Nanoseconds(),
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": list, "count": len(list)})
}

// handleStats serves GET /v1/stats: the mapper's two-tier cache counters,
// cumulative pipeline totals, scheduler load and job tracking — the JSON
// face of the same numbers /metrics exposes for scrapers.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.mapper.CacheStats()
	tot := s.mapper.Totals()
	qs := s.mapper.QueueStats()
	s.jobMu.RLock()
	tracked := len(s.jobs)
	s.jobMu.RUnlock()

	cache := map[string]any{
		"hits":    cs.Hits,
		"misses":  cs.Misses,
		"entries": cs.Entries,
	}
	body := map[string]any{
		"uptime_ns": time.Since(s.started).Nanoseconds(),
		"cache":     cache,
		"totals": map[string]any{
			"maps":               tot.Maps,
			"errors":             tot.Errors,
			"memory_hits":        tot.MemoryHits,
			"disk_hits":          tot.DiskHits,
			"sat_solves":         tot.SATSolves,
			"sat_encodes":        tot.SATEncodes,
			"sat_conflicts":      tot.SATConflicts,
			"bound_probes":       tot.BoundProbes,
			"rate_limited":       s.rateLimited.Load(),
			"degraded_anytime":   tot.DegradedAnytime,
			"degraded_heuristic": tot.DegradedHeuristic,
			"panics":             s.panics.Load(),
		},
		"scheduler": map[string]any{
			"queue_depth":    qs.Depth,
			"queue_capacity": qs.Capacity,
			"workers":        qs.Workers,
			"in_flight":      qs.InFlight,
			"tracked_jobs":   tracked,
		},
	}
	if cs.DiskEnabled {
		body["store"] = map[string]any{
			"hits":        cs.DiskHits,
			"misses":      cs.DiskMisses,
			"writes":      cs.DiskWrites,
			"records":     cs.DiskRecords,
			"segments":    cs.DiskSegments,
			"live_bytes":  cs.DiskLiveBytes,
			"dead_bytes":  cs.DiskDeadBytes,
			"compactions": cs.DiskCompactions,
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tj, ok := s.lookupJob(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job id %q", id))
		return
	}
	tj.h.Cancel()
	s.jobMu.Lock()
	delete(s.jobs, id)
	s.jobMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleMethods(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string][]string{"methods": qxmap.Methods()})
}

// archInfo is one structured /v1/archs catalog entry. Parameterized
// families ("linear<m>", "ring<m>", "grid<r>x<c>") carry only their
// placeholder name; concrete devices report their size, coupling shape and
// default cost-model summary.
type archInfo struct {
	Name          string `json:"name"`
	Parameterized bool   `json:"parameterized,omitempty"`
	Qubits        int    `json:"qubits,omitempty"`
	Pairs         int    `json:"pairs,omitempty"`
	// Directed reports whether some coupling is one-directional (CNOT
	// reversal there costs H gates in every cost model).
	Directed  bool   `json:"directed,omitempty"`
	CostModel string `json:"cost_model,omitempty"`
}

func (s *server) handleArchs(w http.ResponseWriter, r *http.Request) {
	names := qxmap.Architectures()
	// Requests are solved under the server's default cost model (the
	// -cost-model/-calibration flags) unless a per-request model overrides
	// it, so that is the summary each entry reports.
	defaultCM := s.mapper.Options().CostModel
	infos := make([]archInfo, 0, len(names))
	for _, n := range names {
		info := archInfo{Name: n}
		if a, err := qxmap.ArchByName(n); err == nil {
			info.Qubits = a.NumQubits()
			info.Pairs = len(a.Pairs())
			for _, p := range a.Pairs() {
				if !a.Allows(p.Target, p.Control) {
					info.Directed = true
					break
				}
			}
			cm := defaultCM
			if cm == nil {
				cm = a.Cost()
			}
			info.CostModel = cm.Summary()
		} else {
			// Placeholder spellings don't resolve to a device.
			info.Parameterized = true
		}
		infos = append(infos, info)
	}
	// "names" keeps the original flat list for existing clients; "archs"
	// carries the structured catalog.
	s.writeJSON(w, http.StatusOK, map[string]any{"archs": infos, "names": names})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cs := s.mapper.CacheStats()
	s.jobMu.RLock()
	tracked := len(s.jobs)
	s.jobMu.RUnlock()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.started).Nanoseconds(),
		"workers":   s.mapper.Workers(),
		"jobs":      tracked,
		"cache": map[string]any{
			"hits":    cs.Hits,
			"misses":  cs.Misses,
			"entries": cs.Entries,
		},
	})
}
