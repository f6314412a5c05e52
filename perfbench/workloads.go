package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro"
	"repro/internal/revlib"
)

// request is one map request of a workload's schedule.
type request struct {
	// class groups requests for the time-share and per-layer figures:
	// "table1", "ladder", "hit", "miss" or "heuristic".
	class string
	// key identifies the input (circuit, device and options): requests
	// with one key must get answers of one cost.
	key  string
	circ *qxmap.Circuit
	// qasm, when set, is what the request sends: it is parsed per request
	// and the answer is encoded as JSON, as the qxmapd sync path does.
	qasm string
	arch *qxmap.Architecture
	opts qxmap.Options
}

// exactFamily reports whether the request asks for an exact method, whose
// answer must equal (or, degraded, bracket) the DP optimum.
func (r *request) exactFamily() bool {
	return r.opts.Method == qxmap.MethodExact || r.opts.Method == qxmap.MethodExactSubsets
}

// bench is one workload: its clients, its request schedule in rounds, and
// the Mapper it drives.
type bench struct {
	name    string
	clients int
	// burst > 1 submits that many requests at once as async jobs and waits
	// on every handle; 1 maps synchronously.
	burst int
	// round returns round r's requests in the order they are issued; its
	// length is a multiple of burst. Every round has the same mix.
	round func(r int) []*request
	// warmup is mapped once, untimed, before the timed phase.
	warmup *request
	// populate lists the requests whose answers are written to the store
	// before set-up (nil: the workload runs without a store).
	populate []*request
	// options configures the Mapper under test; storeDir is "" without a
	// store.
	options func(storeDir string) []qxmap.Option
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(config) (*bench, error){
	"table1-sat":    newTable1SAT,
	"service-warm":  newServiceWarm,
	"ladder-budget": newLadderBudget,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// table1Rows returns the paper's Table-1 rows with at most 24 CNOTs: 22 of
// the 25. 4gt13_92, qe_qft_4 and qe_qft_5 are left out for run length only:
// one SAT solve of each takes 4.5–31 s on one core.
func table1Rows(small bool) []revlib.Benchmark {
	var rows []revlib.Benchmark
	for _, b := range revlib.Suite() {
		if b.CNOTs <= 24 {
			rows = append(rows, b)
		}
	}
	if small {
		// The three cheapest SAT solves, for tests.
		keep := map[string]bool{"ex-1_166": true, "ham3_102": true, "4mod5-v0_20": true}
		small := rows[:0]
		for _, b := range rows {
			if keep[b.Name] {
				small = append(small, b)
			}
		}
		rows = small
	}
	return rows
}

// cheapestRow returns the row with the fewest CNOTs, the warm-up input.
func cheapestRow(rows []revlib.Benchmark) revlib.Benchmark {
	best := rows[0]
	for _, b := range rows[1:] {
		if b.CNOTs < best.CNOTs {
			best = b
		}
	}
	return best
}

// newTable1SAT is the paper's Table-1 experiment on the paper's engine: one
// client maps the 22 rows with the exact method and the SAT engine on QX4,
// in an order the seed fixes. The rows are the suite's own circuits for
// every seed: redrawn rows made the SAT work of one pass range 23–38 s
// across ten seeds, wider than any bound the benchmark could hold.
func newTable1SAT(cfg config) (*bench, error) {
	rows := table1Rows(cfg.small)
	opts := qxmap.Options{Method: qxmap.MethodExact, Engine: qxmap.EngineSAT}
	var reqs []*request
	for _, i := range rand.New(rand.NewSource(cfg.seed)).Perm(len(rows)) {
		reqs = append(reqs, rowRequest("table1", rows[i], opts))
	}
	return &bench{
		name:    "table1-sat",
		clients: 1,
		burst:   1,
		round:   func(int) []*request { return reqs },
		warmup:  rowRequest("table1", cheapestRow(rows), opts),
		options: func(string) []qxmap.Option { return []qxmap.Option{qxmap.WithWorkers(1)} },
	}, nil
}

// rowRequest maps one Table-1 row on QX4.
func rowRequest(class string, b revlib.Benchmark, opts qxmap.Options) *request {
	return &request{
		class: class,
		key:   fmt.Sprintf("%s/%s/c%d", class, b.Name, opts.SATMaxConflicts),
		circ:  b.Circuit,
		arch:  qxmap.QX4(),
		opts:  opts,
	}
}

// ladderBudgets are the SAT conflict budgets of ladder-budget's jobs. On the
// 22 rows they give every rung of the ladder: full answers, anytime
// incumbents and heuristic fallbacks.
var ladderBudgets = []int64{200, 1000, 3000}

// newLadderBudget loads the async scheduler and the direct path's
// degradation ladder: two clients each submit bursts of three jobs to a
// Mapper with two workers and wait on every handle. A round is every
// (row, budget) pair once, in an order drawn from the seed and the round
// index. A conflict budget
// makes each job's rung repeat exactly, where a deadline does not.
func newLadderBudget(cfg config) (*bench, error) {
	rows := table1Rows(cfg.small)
	var jobs []*request
	for _, b := range rows {
		for _, budget := range ladderBudgets {
			opts := qxmap.Options{Method: qxmap.MethodExact, Engine: qxmap.EngineSAT, Ladder: true, SATMaxConflicts: budget}
			jobs = append(jobs, rowRequest("ladder", b, opts))
		}
	}
	// Each round submits the jobs in its own order, so the queueing a run
	// measures averages over several orders instead of repeating one.
	round := func(r int) []*request {
		order := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(r))).Perm(len(jobs))
		reqs := make([]*request, len(jobs))
		for i, j := range order {
			reqs[i] = jobs[j]
		}
		return reqs
	}
	warm := qxmap.Options{Method: qxmap.MethodExact, Engine: qxmap.EngineSAT, Ladder: true, SATMaxConflicts: ladderBudgets[0]}
	return &bench{
		name:    "ladder-budget",
		clients: 2,
		burst:   3,
		round:   round,
		warmup:  rowRequest("ladder", cheapestRow(rows), warm),
		options: func(string) []qxmap.Option {
			return []qxmap.Option{qxmap.WithWorkers(2), qxmap.WithLadder(true)}
		},
	}, nil
}
