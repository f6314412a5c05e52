package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro"
	"repro/internal/revlib"
)

// The service-warm mix of one round. Pool requests (80%) ask the default
// exact/SAT method for circuits the store already holds; never-seen
// requests (12%) ask the portfolio for fresh circuits, half exact on QX4 and
// half exact-subsets on QX5; heuristic requests (8%) run each heuristic
// method on each large device once per qubit count, plus the stochastic
// method on the 12-qubit, 120-CNOT heavyhex27 circuit it fails on (a known
// defect, kept so that it shows in success_ratio). The shares, the pool and
// LRU sizes and the Zipf exponent are assumptions, not measured traffic.
const (
	poolSize      = 64 // distinct pool circuits, drawn Zipf-popular
	lruSize       = 16 // memory tier entries: smaller than the pool
	poolPerRound  = 480
	freshPerRound = 72
	zipfS         = 1.1 // popularity of pool rank i is proportional to (i+1)^-zipfS
	requestSeed   = 7   // heuristic seed of every request
)

var (
	heuristicMethods = []qxmap.Method{qxmap.MethodHeuristic, qxmap.MethodAStar, qxmap.MethodSabre}
	// heuristicQubits stops at 8: from 9 to 12 qubits (at 10 CNOTs per
	// qubit) one request took 0.1–4.4 s and allocated up to 2 GB depending
	// on the draw, which swamped every other class and made runs of one
	// mix differ by 30%.
	heuristicQubits = []int{5, 6, 7, 8}
)

func heuristicDevices() []*qxmap.Architecture {
	return []*qxmap.Architecture{qxmap.QX5(), qxmap.Melbourne(), qxmap.Tokyo(), qxmap.HeavyHex27()}
}

// newServiceWarm is the deployed qxmapd sync path in-process under an
// assumed request mix: two clients send QASM, the Mapper (ladder on, a
// store on a temporary directory, an LRU smaller than the pool) maps it,
// and the answer is encoded as JSON.
// Pool answers come from the memory or disk tier with no SAT work, so a
// change to the SAT engine should read as no change here.
//
// The seed draws the pool and fresh circuits and the order of every round;
// their Table-1 profiles are assigned in turn, so each round has the same
// sizes. The heuristic circuits are the same for every seed: their cost
// varies so much from draw to draw that seed-drawn ones made the run-to-run
// spread of throughput 30%.
func newServiceWarm(cfg config) (*bench, error) {
	rows := table1Rows(false)
	var small []revlib.Benchmark // profiles of at most 4 qubits, for QX5
	for _, b := range rows {
		if b.N <= 4 {
			small = append(small, b)
		}
	}
	nPool, nPoolRound, nFresh := poolSize, poolPerRound, freshPerRound
	devices, qubits := heuristicDevices(), heuristicQubits
	if cfg.small {
		nPool, nPoolRound, nFresh = 4, 8, 2
		devices, qubits = devices[:1], qubits[:1]
	}

	defaults := qxmap.Options{Method: qxmap.MethodExact, Engine: qxmap.EngineSAT, Ladder: true, Seed: requestSeed}
	pool := make([]*request, nPool)
	for i := range pool {
		b := rows[i%len(rows)]
		c := revlib.RandomCircuit(fmt.Sprintf("pool/%d/%d", cfg.seed, i), b.N, b.SingleQubit, b.CNOTs)
		r, err := qasmRequest("hit", fmt.Sprintf("hit/%d", i), c, qxmap.QX4(), defaults)
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	populate := make([]*request, len(pool))
	for i, r := range pool {
		p := *r
		p.opts.Portfolio = true
		populate[i] = &p
	}

	var heuristic []*request
	for _, a := range devices {
		for _, n := range qubits {
			c := revlib.RandomCircuit(fmt.Sprintf("heur/%s/%d", a.Name(), n), n, 10*n, 10*n)
			for _, meth := range heuristicMethods {
				opts := defaults
				opts.Method = meth
				req, err := qasmRequest("heuristic", fmt.Sprintf("heur/%s/%d/%s", a.Name(), n, meth), c, a, opts)
				if err != nil {
					return nil, err
				}
				heuristic = append(heuristic, req)
			}
		}
	}

	if !cfg.small {
		a := qxmap.HeavyHex27()
		c := revlib.RandomCircuit(fmt.Sprintf("heur/%s/%d", a.Name(), 12), 12, 120, 120)
		opts := defaults
		opts.Method = qxmap.MethodHeuristic
		req, err := qasmRequest("heuristic", fmt.Sprintf("heur/%s/12/%s", a.Name(), opts.Method), c, a, opts)
		if err != nil {
			return nil, err
		}
		heuristic = append(heuristic, req)
	}

	// Each round asks for pool circuit i exactly hits[i] times, Zipf-
	// proportional; the seed only orders the requests. Random draws made
	// the mix of circuit sizes, and with it the median latency, differ from
	// run to run.
	hits := zipfCounts(len(pool), nPoolRound, zipfS)
	round := func(r int) []*request {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(r)))
		var reqs []*request
		for i, n := range hits {
			for k := 0; k < n; k++ {
				reqs = append(reqs, pool[i])
			}
		}
		for i := 0; i < nFresh; i++ {
			opts := defaults
			opts.Portfolio = true
			name := fmt.Sprintf("fresh/%d/%d/%d", cfg.seed, r, i)
			a, b := qxmap.QX4(), rows[(i/2)%len(rows)]
			if i%2 == 1 {
				opts.Method = qxmap.MethodExactSubsets
				a, b = qxmap.QX5(), small[(i/2)%len(small)]
			}
			c := revlib.RandomCircuit(name, b.N, b.SingleQubit, b.CNOTs)
			req, err := qasmRequest("miss", name, c, a, opts)
			if err != nil {
				panic(err) // generated circuits always write; a failure is a bug
			}
			reqs = append(reqs, req)
		}
		reqs = append(reqs, heuristic...)
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		return reqs
	}

	return &bench{
		name:     "service-warm",
		clients:  2,
		burst:    1,
		round:    round,
		warmup:   pool[0],
		populate: populate,
		options: func(storeDir string) []qxmap.Option {
			return []qxmap.Option{
				qxmap.WithWorkers(2),
				qxmap.WithLadder(true),
				qxmap.WithCacheSize(lruSize),
				qxmap.WithStore(storeDir),
			}
		},
	}, nil
}

// qasmRequest builds a request that sends the circuit as QASM text.
func qasmRequest(class, key string, c *qxmap.Circuit, a *qxmap.Architecture, opts qxmap.Options) (*request, error) {
	src, err := qxmap.WriteQASM(c)
	if err != nil {
		return nil, fmt.Errorf("writing %s as QASM: %w", key, err)
	}
	return &request{class: class, key: key, circ: c, qasm: src, arch: a, opts: opts}, nil
}

// zipfCounts splits total requests over n ranks in proportion to
// (i+1)^-s, rounding by largest remainder so the counts sum to total.
func zipfCounts(n, total int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, n)
	rest := make([]int, n)
	left := total
	for i := range w {
		exact := w[i] / sum * float64(total)
		counts[i] = int(exact)
		left -= counts[i]
		rest[i] = i
		w[i] = exact - float64(counts[i])
	}
	sort.SliceStable(rest, func(a, b int) bool { return w[rest[a]] > w[rest[b]] })
	for _, i := range rest[:left] {
		counts[i]++
	}
	return counts
}
