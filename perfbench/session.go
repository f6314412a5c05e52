package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro"
)

const (
	// setupRepeats is how often a run sets the Mapper up; setup_s is the
	// median. A set-up without a store takes well under a microsecond, so
	// the median needs many samples to hold still. Batches of set-ups
	// timed as one interval read higher and spread more: the Mappers held
	// alive change what the allocator does.
	setupRepeats = 1001
	// requestTimeout is the generous per-request deadline of the sync
	// workloads; the whole-run deadline still bounds the run.
	requestTimeout = 60 * time.Second
)

// session is one run's Mapper under test and the temporary directory it
// owns.
type session struct {
	cfg    config
	b      *bench
	tmp    string
	m      *qxmap.Mapper
	setups []time.Duration
	refs   *references
}

// startSession populates the store (untimed), then sets the Mapper up
// setupRepeats times, keeping the last one. On error everything it made is
// released.
func startSession(ctx context.Context, cfg config, b *bench) (s *session, err error) {
	tmp, err := os.MkdirTemp(cfg.dir, b.name+"-")
	if err != nil {
		return nil, fmt.Errorf("temporary directory: %w", err)
	}
	s = &session{cfg: cfg, b: b, tmp: tmp, refs: newReferences()}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	storeDir := ""
	if b.populate != nil {
		storeDir = filepath.Join(tmp, "store")
		if err := populateStore(ctx, storeDir, b); err != nil {
			return nil, err
		}
	}
	// Start every run's set-ups from a collected heap and a warmed path, so
	// the leftovers of population and input generation do not time in.
	runtime.GC()
	for i := -1; i < setupRepeats; i++ {
		if s.m != nil {
			if err := s.m.Close(); err != nil {
				return nil, fmt.Errorf("closing set-up Mapper: %w", err)
			}
			s.m = nil
		}
		start := time.Now()
		m, err := qxmap.NewMapper(b.options(storeDir)...)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i >= 0 {
			s.setups = append(s.setups, time.Since(start))
		}
		s.m = m
	}
	return s, nil
}

// populateStore writes the answers of b.populate into a store at dir with
// a Mapper of its own, closed before set-up opens the store again.
func populateStore(ctx context.Context, dir string, b *bench) error {
	m, err := qxmap.NewMapper(qxmap.WithStore(dir), qxmap.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("populating the store: %w", err)
	}
	for _, r := range b.populate {
		if _, err := m.MapWith(ctx, r.circ, r.arch, r.opts); err != nil {
			m.Close()
			return fmt.Errorf("populating the store with %s: %w", r.key, err)
		}
	}
	if err := m.Close(); err != nil {
		return fmt.Errorf("closing the populating Mapper: %w", err)
	}
	return nil
}

// close releases the Mapper and removes the temporary directory.
func (s *session) close() error {
	var err error
	if s.m != nil {
		err = s.m.Close()
		s.m = nil
	}
	if rerr := os.RemoveAll(s.tmp); err == nil {
		err = rerr
	}
	return err
}

// sample is one answered (or failed) request.
type sample struct {
	req   *request
	round int
	id    int
	start time.Time
	lat   time.Duration
	// parse and encode time the QASM parse and the JSON answer; queued is
	// an async job's wait for a worker.
	parse, encode, queued time.Duration
	res                   *qxmap.Result
	err                   error
	// bad is set by the outside checks when the answer is wrong.
	bad error
}

func (s *sample) ok() bool { return s.err == nil && s.bad == nil }

// phase is one closed-loop measurement.
type phase struct {
	samples    []*sample
	firstRound int
	rounds     int
	elapsed    time.Duration
	use        usage
}

// loop runs the closed loop: the clients take units (one request, or one
// burst of async jobs) in schedule order until d has passed, always
// finishing the round in progress, so a run measures whole rounds of one
// mix. d = 0 runs exactly one round.
func (s *session) loop(ctx context.Context, firstRound int, d time.Duration, tr *tracer) (*phase, error) {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		rounds  = map[int][]*request{}
	)
	perRound := -1
	start := time.Now()
	take := func() (u, r int, reqs []*request, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || ctx.Err() != nil {
			return 0, 0, nil, false
		}
		if perRound > 0 && next%perRound == 0 && next > 0 && time.Since(start) >= d {
			stopped = true
			return 0, 0, nil, false
		}
		r = firstRound
		if perRound > 0 {
			r += next / perRound
		}
		if reqs, ok = rounds[r]; !ok {
			reqs = s.b.round(r)
			rounds[r] = reqs
			perRound = len(reqs) / s.b.burst
		}
		k := next % perRound
		u = next
		next++
		return u, r, reqs[k*s.b.burst : (k+1)*s.b.burst], true
	}

	before, err := readUsage()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	got := make([][]*sample, s.b.clients)
	for c := 0; c < s.b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				u, r, reqs, ok := take()
				if !ok {
					return
				}
				got[c] = append(got[c], s.unit(ctx, u, r, reqs, tr)...)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := readUsage()
	if err != nil {
		return nil, err
	}
	p := &phase{firstRound: firstRound, elapsed: elapsed, use: after.since(before)}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run stopped: %w", err)
	}
	for _, g := range got {
		p.samples = append(p.samples, g...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].id < p.samples[j].id })
	p.rounds = len(rounds)
	return p, nil
}

// unit issues one unit of requests and returns their samples.
func (s *session) unit(ctx context.Context, u, round int, reqs []*request, tr *tracer) []*sample {
	out := make([]*sample, len(reqs))
	for i, r := range reqs {
		out[i] = &sample{req: r, round: round, id: u*s.b.burst + i}
	}
	if s.b.burst == 1 {
		s.mapSync(ctx, out[0], tr)
		return out
	}
	s.mapAsync(ctx, out, tr)
	return out
}

// mapSync maps one request synchronously: QASM in and JSON out when the
// request carries QASM, as qxmapd's sync path does.
func (s *session) mapSync(ctx context.Context, sm *sample, tr *tracer) {
	r := sm.req
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	sm.start = time.Now()
	c := r.circ
	if r.qasm != "" {
		parsed, err := qxmap.ParseQASM(r.qasm)
		sm.parse = time.Since(sm.start)
		if err != nil {
			sm.err = fmt.Errorf("parsing QASM: %w", err)
			sm.lat = time.Since(sm.start)
			return
		}
		c = parsed
	}
	mapStart := time.Now()
	sm.res, sm.err = s.m.MapWith(ctx, c, r.arch, r.opts)
	mapEnd := time.Now()
	if sm.err == nil && r.qasm != "" {
		body, err := sm.res.JSON(true)
		if err == nil {
			_, err = json.Marshal(body)
		}
		sm.encode = time.Since(mapEnd)
		if err != nil {
			sm.err = fmt.Errorf("encoding the answer: %w", err)
		}
	}
	sm.lat = time.Since(sm.start)
	if tr != nil {
		tr.request(sm, mapStart, mapEnd)
	}
}

// mapAsync submits the burst as async jobs and waits on every handle; each
// latency runs from its Submit to its Wait returning.
func (s *session) mapAsync(ctx context.Context, burst []*sample, tr *tracer) {
	handles := make([]*qxmap.JobHandle, len(burst))
	for i, sm := range burst {
		r := sm.req
		sm.start = time.Now()
		h, err := s.m.Submit(ctx, qxmap.Job{Name: r.key, Circuit: r.circ, Arch: r.arch, Opts: r.opts})
		if err != nil {
			sm.err = err
			sm.lat = time.Since(sm.start)
			continue
		}
		handles[i] = h
	}
	var wg sync.WaitGroup
	for i, h := range handles {
		if h == nil {
			continue
		}
		wg.Add(1)
		go func(sm *sample, h *qxmap.JobHandle) {
			defer wg.Done()
			sm.res, sm.err = h.Wait(ctx)
			sm.lat = time.Since(sm.start)
			sm.queued = h.Stats().Queued
			if tr != nil {
				tr.job(sm)
			}
		}(burst[i], h)
	}
	wg.Wait()
}

// usage is a reading of the process's resource counters.
type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // bytes allocated, cumulative
	gcCPU float64       // seconds of GC CPU, estimated by the runtime
}

func readUsage() (usage, error) {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("reading CPU time: %w", err)
	}
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc = ms.TotalAlloc
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u, nil
}

func (u usage) since(b usage) usage {
	return usage{cpu: u.cpu - b.cpu, alloc: u.alloc - b.alloc, gcCPU: u.gcCPU - b.gcCPU}
}

// peakRSSMB is the process's peak resident memory so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak memory: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// warm maps the workload's warm-up request once, untimed.
func (s *session) warm(ctx context.Context) error {
	sm := &sample{req: s.b.warmup}
	if s.b.burst == 1 {
		s.mapSync(ctx, sm, nil)
	} else {
		s.mapAsync(ctx, []*sample{sm}, nil)
	}
	if sm.err != nil {
		return fmt.Errorf("warm-up %s: %w", sm.req.key, sm.err)
	}
	return nil
}

var errNoSamples = errors.New("the run measured no request")
