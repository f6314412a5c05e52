package qxmap

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Job is one mapping task: a circuit, a target architecture and the
// per-job options (any method, any engine — jobs of one batch may mix
// freely). Jobs are consumed by Mapper.MapBatch (synchronous fan-out) and
// Mapper.Submit (asynchronous handle).
type Job struct {
	// Name labels the job in reports; it is carried through to the
	// BatchResult untouched (optional).
	Name string
	// Circuit is the input circuit (elementary gates only, as for Map).
	Circuit *Circuit
	// Arch is the target architecture.
	Arch *Architecture
	// Opts configures the job exactly as for Map. It is used verbatim:
	// start from Mapper.Options() to adopt the instance defaults.
	Opts Options
}

// BatchOptions tunes MapBatch.
type BatchOptions struct {
	// Workers bounds the number of jobs solved concurrently (default: the
	// mapper's worker bound — see WithWorkers — which itself defaults to
	// runtime.GOMAXPROCS(0), one worker per available core).
	Workers int
	// JobTimeout is a per-job deadline (0 = none). An expired job fails
	// with an error wrapping context.DeadlineExceeded while the remaining
	// jobs continue — exact and heuristic methods alike observe the
	// deadline through the pipeline's context plumbing.
	JobTimeout time.Duration
}

// BatchResult pairs one job with its outcome. Exactly one of Result and
// Err is non-nil.
type BatchResult struct {
	// Index is the job's position in the input slice (results are
	// returned in input order, so this is also the slice index).
	Index int
	// Job echoes the input job.
	Job Job
	// Result is the pipeline outcome, nil if the job failed.
	Result *Result
	// Err is the job's failure, nil on success. Failures are collected
	// per job (fail-soft): one bad or timed-out job never aborts the
	// batch. Cancelling the batch context fails the jobs not yet
	// finished with an error wrapping ctx.Err().
	Err error
}

// MapBatch maps a batch of independent jobs concurrently on a bounded
// worker pool and returns one BatchResult per job, in input order. Costs
// are identical to running Map on each job sequentially: jobs never share
// mutable state, only this instance's portfolio cache — so identical
// Portfolio-mode instances across the batch solve once and the rest hit
// the cache (Result.CacheHit). The pool is independent of the async
// scheduler's: a batch never starves Submit jobs of workers.
func (m *Mapper) MapBatch(ctx context.Context, jobs []Job, opts BatchOptions) []BatchResult {
	results := make([]BatchResult, len(jobs))
	workers := opts.Workers
	if workers <= 0 {
		workers = m.workers // NewMapper normalizes this to ≥ 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = m.runJob(ctx, i, jobs[i], opts.JobTimeout)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runJob executes one job under its per-job deadline. The pipeline has its
// own recover boundary; this one additionally shields the pool's slot
// bookkeeping, so a panicking job yields an errored BatchResult and the
// workers keep draining the batch.
func (m *Mapper) runJob(ctx context.Context, i int, job Job, timeout time.Duration) (br BatchResult) {
	defer func() {
		if r := recover(); r != nil {
			br = BatchResult{Index: i, Job: job, Err: fmt.Errorf("qxmap: job panicked: %v", r)}
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := m.MapWith(ctx, job.Circuit, job.Arch, job.Opts)
	return BatchResult{Index: i, Job: job, Result: res, Err: err}
}
