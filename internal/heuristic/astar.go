package heuristic

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/perm"
)

// AStarOptions tunes the A*-search mapper.
type AStarOptions struct {
	// Lookahead weighs the following layer's distances into the search
	// heuristic (0 disables; 0.5 is the customary value). Non-zero
	// lookahead makes the per-layer search inadmissible but usually
	// reduces the global cost, exactly as in the A* methodology the paper
	// cites as [22] (Zulehner, Paler, Wille, TCAD 2018).
	Lookahead float64
	// MaxExpansions caps A* node expansions per layer (default 200 000).
	MaxExpansions int
	// Initial pins the starting layout (default: trivial layout).
	Initial perm.Mapping
}

func (o AStarOptions) withDefaults() AStarOptions {
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 200_000
	}
	return o
}

// cancelCheckInterval is how many A* node expansions may pass between
// context polls: frequent enough for sub-millisecond deadline response,
// rare enough to keep the atomic load off the hot path.
const cancelCheckInterval = 1024

// MapAStar maps the skeleton with a per-layer A* search over SWAP
// sequences: a deterministic, stronger baseline than the stochastic
// mapper, in the algorithmic family of the paper's reference [22]. For
// each layer whose gates are not all executable, A* finds a provably
// SWAP-count-minimal repair for that layer (greedy across layers, so still
// a heuristic globally). Cancelling the context aborts the run between
// layers and within a bounded number of node expansions.
func MapAStar(ctx context.Context, sk *circuit.Skeleton, a *arch.Arch, opts AStarOptions) (*Result, error) {
	n, m := sk.NumQubits, a.NumQubits()
	if n > m {
		return nil, fmt.Errorf("heuristic: %d logical qubits exceed %d physical", n, m)
	}
	if !a.Connected() {
		return nil, fmt.Errorf("heuristic: architecture %s is disconnected", a)
	}
	opts = opts.withDefaults()

	initial := opts.Initial
	if initial == nil {
		initial = perm.IdentityMapping(n)
	} else if len(initial) != n || !initial.Valid(m) {
		return nil, fmt.Errorf("heuristic: invalid initial layout %v", initial)
	}
	res := &Result{InitialMapping: initial.Copy()}
	layout := res.InitialMapping.Copy()
	layers := sk.DisjointLayers()

	for li, layer := range layers {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("heuristic: canceled: %w", err)
		}
		gates := make([]circuit.CNOTGate, len(layer))
		for i, gi := range layer {
			gates[i] = sk.Gates[gi]
		}
		var next []circuit.CNOTGate
		if opts.Lookahead > 0 && li+1 < len(layers) {
			for _, gi := range layers[li+1] {
				next = append(next, sk.Gates[gi])
			}
		}
		if !layerExecutable(gates, layout, a) {
			seq, err := astarSwaps(ctx, gates, next, layout, a, opts)
			if err != nil {
				return nil, err
			}
			for _, e := range seq {
				res.Ops = append(res.Ops, circuit.MappedOp{Swap: true, A: e.A, B: e.B})
				res.Swaps++
				layout = layout.ApplySwap(e.A, e.B)
			}
		}
		for i, g := range gates {
			pc, pt := layout[g.Control], layout[g.Target]
			op := circuit.MappedOp{GateIndex: layer[i], Control: pc, Target: pt}
			if !a.Allows(pc, pt) {
				if !a.Allows(pt, pc) {
					return nil, fmt.Errorf("heuristic: internal error: gate %d not executable after A*", layer[i])
				}
				op.Control, op.Target = pt, pc
				op.Switched = true
				res.Switches++
			}
			res.Ops = append(res.Ops, op)
		}
	}
	res.FinalMapping = layout
	res.Cost = opsCost(a, res.Ops)
	return res, nil
}

// node is one A* search state.
type node struct {
	layout perm.Mapping
	g      int     // weighted cost of the SWAPs used so far
	f      float64 // g + h (+ finish estimate)
	seq    []perm.Edge
	index  int
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *nodeQueue) Push(x interface{}) { n := x.(*node); n.index = len(*q); *q = append(*q, n) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := old[len(old)-1]
	*q = old[:len(old)-1]
	return n
}

// layerH is the admissible part of the heuristic: each SWAP moves two
// physical qubits, and within a layer every qubit participates in at most
// one gate, so one SWAP reduces the summed distance-to-adjacency by at
// most 2 — and costs at least the model's cheapest SWAP weight.
func layerH(gates []circuit.CNOTGate, layout perm.Mapping, a *arch.Arch, minSwapW int) int {
	excess := 0
	for _, g := range gates {
		d := a.Distance(layout[g.Control], layout[g.Target])
		if d > 1 {
			excess += d - 1
		}
	}
	return minSwapW * ((excess + 1) / 2)
}

// finishCost is the direction-fix cost once all gates are adjacent.
func finishCost(gates []circuit.CNOTGate, layout perm.Mapping, a *arch.Arch) int {
	cm := a.Cost()
	cost := 0
	for _, g := range gates {
		pc, pt := layout[g.Control], layout[g.Target]
		if !a.Allows(pc, pt) {
			cost += cm.HWeight(pt, pc)
		}
	}
	return cost
}

// lookaheadH adds a discounted estimate for the next layer.
func lookaheadH(next []circuit.CNOTGate, layout perm.Mapping, a *arch.Arch, minSwapW int, w float64) float64 {
	if w <= 0 || len(next) == 0 {
		return 0
	}
	excess := 0
	for _, g := range next {
		d := a.Distance(layout[g.Control], layout[g.Target])
		if d > 1 {
			excess += d - 1
		}
	}
	return w * float64(minSwapW) * float64(excess) / 2
}

// opsCost prices a mapped op stream under the architecture's cost model:
// each SWAP at its edge's weight, each switched CNOT at its executed
// direction's switch weight (7 and 4 everywhere in the paper model).
func opsCost(a *arch.Arch, ops []circuit.MappedOp) int {
	cm := a.Cost()
	cost := 0
	for _, op := range ops {
		switch {
		case op.Swap:
			cost += cm.SwapWeight(op.A, op.B)
		case op.Switched:
			cost += cm.HWeight(op.Control, op.Target)
		}
	}
	return cost
}

// astarSwaps finds a SWAP sequence making every layer gate executable,
// minimizing the model-weighted SWAP + direction-switch cost for this
// layer (7·#SWAPs + 4·#switches in the paper model; plus lookahead bias
// when enabled). The context is polled every cancelCheckInterval node
// expansions so long searches stay responsive to per-job deadlines.
func astarSwaps(ctx context.Context, gates, next []circuit.CNOTGate, start perm.Mapping, a *arch.Arch, opts AStarOptions) ([]perm.Edge, error) {
	cm := a.Cost()
	minSwapW := cm.MinSwapWeight(a.UndirectedEdges())
	startNode := &node{
		layout: start.Copy(),
		f:      float64(layerH(gates, start, a, minSwapW)) + lookaheadH(next, start, a, minSwapW, opts.Lookahead),
	}
	open := &nodeQueue{}
	heap.Init(open)
	heap.Push(open, startNode)
	// The closed set is keyed by Mapping.Key, collision-free for layouts
	// of any size; lookups append the key into buf and allocate nothing.
	bestG := map[string]int{start.Key(): 0}
	var buf []byte

	var best *node
	bestTotal := 1 << 30
	expansions := 0
	for open.Len() > 0 {
		cur := heap.Pop(open).(*node)
		if best != nil && float64(bestTotal) <= cur.f {
			break // everything remaining is at least as expensive
		}
		expansions++
		if expansions > opts.MaxExpansions {
			break
		}
		if expansions%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("heuristic: canceled: %w", err)
			}
		}
		if layerExecutable(gates, cur.layout, a) {
			total := cur.g + finishCost(gates, cur.layout, a)
			if total < bestTotal {
				bestTotal = total
				best = cur
			}
			continue
		}
		for _, e := range a.UndirectedEdges() {
			nl := cur.layout.ApplySwap(e.A, e.B)
			ng := cur.g + cm.EdgeSwapWeight(e)
			buf = nl.AppendKey(buf[:0])
			if prev, ok := bestG[string(buf)]; ok && prev <= ng {
				continue
			}
			bestG[string(buf)] = ng
			seq := make([]perm.Edge, len(cur.seq)+1)
			copy(seq, cur.seq)
			seq[len(cur.seq)] = e
			heap.Push(open, &node{
				layout: nl,
				g:      ng,
				f: float64(ng+layerH(gates, nl, a, minSwapW)) +
					lookaheadH(next, nl, a, minSwapW, opts.Lookahead),
				seq: seq,
			})
		}
	}
	if best == nil {
		return nil, fmt.Errorf("heuristic: A* found no executable layout within %d expansions", opts.MaxExpansions)
	}
	return best.seq, nil
}
