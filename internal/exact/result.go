package exact

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/encoder"
	"repro/internal/perm"
)

// Counters is the solver work record of one solve. It is declared once
// here and embedded by every layer that reports it (solver.Plan,
// qxmap.Stats), so its fields are promoted and its JSON tags are the wire
// names of the stats block. The DP engine reports only the §4.1 fields
// (SubsetsPruned, OrbitHits); heuristic plans and disk-tier cache hits
// report none.
type Counters struct {
	// SATSolves counts CDCL invocations.
	SATSolves int `json:"sat_solves"`
	// SATEncodes counts encoder.Encode calls behind the result. The
	// incremental descent encodes exactly once per instance, so a plain
	// run reports 1 and a §4.1 run reports 1 for its one shared instance;
	// a larger value means the engine fell back to re-encoding.
	SATEncodes int `json:"sat_encodes"`
	// SATConflicts counts CDCL conflicts across all solver invocations.
	SATConflicts int64 `json:"sat_conflicts"`
	// BoundProbes counts solver invocations that probed a cost bound via
	// guard assumptions — the descent steps proper, excluding unbounded
	// initial solves.
	BoundProbes int `json:"bound_probes"`
	// BoundJumps counts UNSAT probes where core analysis paid off: the
	// minimized assumption core refuted a looser bound than the tightest
	// one assumed, so the floor advanced past what the probe's conjunction
	// alone implies.
	BoundJumps int `json:"bound_jumps"`
	// LowerBound is the admissible lower bound on F that seeded the
	// descent (0 when disabled or trivial). For a §4.1 run it is the
	// minimum over the attempted subsets' own bounds.
	LowerBound int `json:"lower_bound"`
	// SubsetsPruned counts §4.1 subsets retired without any solver probe
	// of their own: their admissible lower bound showed they could not
	// beat the incumbent.
	SubsetsPruned int `json:"subsets_pruned"`
	// CoreFamilyRefutations counts UNSAT probes on the shared §4.1
	// instance whose assumption core refuted the whole pending subset
	// family at once — one conflict analysis standing in for a per-subset
	// round of probes.
	CoreFamilyRefutations int `json:"core_family_refutations"`
	// OrbitHits counts §4.1 subsets whose result was transferred from
	// their coupling-graph automorphism orbit's representative instead of
	// being re-proven (symmetric architectures only).
	OrbitHits int `json:"orbit_hits"`
}

// Result is the outcome of an exact (or strategy-restricted) mapping run.
type Result struct {
	// Cost is the minimal F found under the architecture's cost model:
	// 7·(SWAPs) + 4·(direction switches) in the paper model, the weighted
	// sum of per-edge SWAP and switch weights under a calibration model.
	Cost int
	// Solution holds the frame mappings, permutations and switch flags.
	// Its physical-qubit indices refer to WorkArch.
	Solution *encoder.Solution
	// WorkArch is the architecture the instance was solved on — either the
	// original or a restricted subset (paper §4.1).
	WorkArch *arch.Arch
	// SubsetBack maps WorkArch physical indices back to the original
	// architecture's indices; nil when no restriction was applied.
	SubsetBack []int
	// PermPoints is |G'| (free initial mapping not counted).
	PermPoints int
	// Engine names the solving engine ("sat" or "dp").
	Engine string
	// Counters is the run's work record; a §4.1 run aggregates every
	// attempted subset.
	Counters
	// Minimal reports whether Cost is PROVEN minimal for this instance by
	// the run itself: the SAT descent reached UNSAT below Cost (or Cost is
	// 0), or the DP/brute oracle ran to completion. A conflict-budgeted
	// descent that was truncated reports false even when its best model
	// happens to be optimal. Note this is per-instance proof — a
	// strategy-restricted instance's proven optimum may still exceed the
	// unrestricted minimum.
	Minimal bool
	// Degraded reports that the run hit its context deadline or conflict
	// budget and returned the best incumbent instead of a proven optimum
	// (anytime mode, SATOptions.Anytime). The Solution is a fully valid
	// mapping; only the minimality proof is missing, so Minimal is always
	// false when Degraded is set.
	Degraded bool
	// BoundGap bounds a Degraded result's distance from the true optimum:
	// the descent had refuted every bound below Cost−BoundGap when it was
	// cut off, so the optimum lies in [Cost−BoundGap, Cost] (cost-model
	// units). 0 when the proof completed — or when the truncation happened
	// before any floor was established, in which case BoundGap equals Cost
	// (the trivial gap).
	BoundGap int
	// Runtime is the wall-clock solving time.
	Runtime time.Duration
}

// markAnytime records a best-effort truncation on the result: the incumbent
// of the given cost is being handed back with its proof unfinished, and lo —
// the largest bound known refuted — dates how far the proof got. Minimal is
// cleared (a truncated descent proves nothing) and BoundGap set so the true
// optimum is bracketed in [cost−BoundGap, cost].
func (r *Result) markAnytime(cost, lo int) {
	r.Minimal = false
	r.Degraded = true
	r.BoundGap = 0
	if gap := cost - 1 - lo; gap > 0 {
		r.BoundGap = gap
	}
}

// translate maps a WorkArch physical index to the original architecture.
func (r *Result) translate(i int) int {
	if r.SubsetBack == nil {
		return i
	}
	return r.SubsetBack[i]
}

// InitialMapping returns the initial logical→physical mapping in original
// architecture indices.
func (r *Result) InitialMapping() perm.Mapping {
	mp := r.Solution.FrameMappings[0].Copy()
	for j, i := range mp {
		mp[j] = r.translate(i)
	}
	return mp
}

// FinalMapping returns the mapping after the last gate in original indices.
func (r *Result) FinalMapping() perm.Mapping {
	mp := r.Solution.FinalMapping().Copy()
	for j, i := range mp {
		mp[j] = r.translate(i)
	}
	return mp
}

// Ops materializes the mapped skeleton as a stream of SWAP and CNOT
// operations on the original architecture's physical qubits. The SWAP
// sequence realizing each inter-frame permutation is found by one search
// from the next frame's mapping, which returns the all-pairs swap table's
// path without building the table: breadth-first (perm.SwapSearch) under
// a uniform cost model, Dijkstra by (weight, swaps)
// (perm.WeightedSwapSearch) otherwise, so the rebuilt paths follow the
// same cheapest edges the solver charged for. The SWAP count equals the
// solution's SwapCount (preserving the optimal cost).
func (r *Result) Ops(sk *circuit.Skeleton) ([]circuit.MappedOp, error) {
	sol := r.Solution
	m := r.WorkArch.NumQubits()
	edges := r.WorkArch.UndirectedEdges()
	var swapPath func(from, to perm.Mapping) ([]perm.Edge, bool)
	if cm := r.WorkArch.Cost(); cm.UniformSwap() {
		swapPath = perm.NewSwapSearch(m, edges).SwapPath
	} else {
		swapPath = perm.NewWeightedSwapSearch(m, edges, cm.EdgeSwapWeight).SwapPath
	}

	var ops []circuit.MappedOp
	frame := 0
	for k, g := range sk.Gates {
		// Emit the permutation's swaps when entering a new frame.
		for frame < sol.GateFrame[k] {
			path, ok := swapPath(sol.FrameMappings[frame], sol.FrameMappings[frame+1])
			if !ok {
				return nil, fmt.Errorf("exact: frames %d→%d unreachable by swaps", frame, frame+1)
			}
			if len(path) != sol.PermSwaps[frame] {
				// A proven-minimal model always charges each transition its
				// cheapest realization, so any mismatch there is a decode
				// bug. A truncated descent's incumbent (Degraded) may charge
				// more swaps than the cheapest path needs — materialize the
				// cheap path; the emitted circuit only undercuts the
				// reported upper-bound cost, never exceeds it.
				if !r.Degraded || len(path) > sol.PermSwaps[frame] {
					return nil, fmt.Errorf("exact: frame %d swap path length %d, solution says %d",
						frame, len(path), sol.PermSwaps[frame])
				}
			}
			for _, e := range path {
				ops = append(ops, circuit.MappedOp{Swap: true, A: r.translate(e.A), B: r.translate(e.B)})
			}
			frame++
		}
		mp := sol.FrameMappings[sol.GateFrame[k]]
		pc, pt := mp[g.Control], mp[g.Target]
		op := circuit.MappedOp{GateIndex: k, Control: r.translate(pc), Target: r.translate(pt), Switched: sol.Switched[k]}
		if sol.Switched[k] {
			op.Control, op.Target = op.Target, op.Control
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("cost=%d (swaps=%d, switches=%d) engine=%s |G'|=%d t=%v",
		r.Cost, r.Solution.SwapCount(), r.Solution.SwitchCount(), r.Engine, r.PermPoints, r.Runtime)
}
