package perm

// Admissible SWAP lower bounds from coupling-graph distances (paper §2's
// cost argument). Every SWAP moves the states of at most two physical
// qubits one coupling edge apart, so for a logical pair interacting via a
// CNOT whose endpoints start at physical distance d, at least d−1 SWAPs
// must move one of its endpoints before the pair can become adjacent to
// execute. Two consequences bound any run from below, for a fixed initial
// placement φ:
//
//   - single pair:   SWAPs ≥ max over pairs of (d_φ(pair) − 1)
//   - disjoint set:  each SWAP moves ≤ 2 logical tokens, and tokens belong
//     to ≤ 1 pair of a matching, so SWAPs ≥ ⌈Σ_M (d_φ(pair) − 1) / 2⌉ for
//     any matching M of the interaction graph.
//
// Since the initial placement is free, minimizing the combined bound over
// all injective placements yields an admissible lower bound on the SWAPs of
// every valid mapping run — the seed for the SAT descent's lower end.

// maxLowerBoundPlacements caps the placement enumeration. The SAT engine
// only ever solves instances with m ≤ 6 physical qubits (≤ 720 placements);
// anything larger falls back to the trivial bound 0.
const maxLowerBoundPlacements = 50000

// PlacementLowerBound returns the admissible SWAP lower bound for a fixed
// initial placement: place[j] is the physical qubit of logical qubit j,
// dist the physical hop-distance matrix (−1 = disconnected), and pairs the
// distinct interacting logical pairs. It returns −1 when some interacting
// pair is disconnected under the placement (no run can start there).
func PlacementLowerBound(dist [][]int, place Mapping, pairs []Edge) int {
	deficits := make([]int, len(pairs))
	maxDef := 0
	for i, p := range pairs {
		d := dist[place[p.A]][place[p.B]]
		if d < 0 {
			return -1
		}
		if d > 1 {
			deficits[i] = d - 1
			if deficits[i] > maxDef {
				maxDef = deficits[i]
			}
		}
	}
	if maxDef == 0 {
		return 0
	}
	lb := (maxWeightMatching(pairs, deficits) + 1) / 2
	if maxDef > lb {
		lb = maxDef
	}
	return lb
}

// InteractionLowerBound minimizes PlacementLowerBound over every injective
// placement of n logical qubits into the m = len(dist) physical qubits. It
// returns 0 (the trivial bound) when the placement space is too large to
// enumerate or when no placement connects all interacting pairs (the run
// will discover unsatisfiability itself).
func InteractionLowerBound(dist [][]int, n int, pairs []Edge) int {
	m := len(dist)
	if n > m || len(pairs) == 0 {
		return 0
	}
	count := 1
	for i := 0; i < n; i++ {
		count *= m - i
		if count > maxLowerBoundPlacements {
			return 0
		}
	}

	best := -1
	place := make(Mapping, n)
	used := make([]bool, m)
	var rec func(j int) bool // returns true once a 0 bound is found
	rec = func(j int) bool {
		if j == n {
			lb := PlacementLowerBound(dist, place, pairs)
			if lb >= 0 && (best < 0 || lb < best) {
				best = lb
			}
			return best == 0
		}
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			place[j] = i
			done := rec(j + 1)
			used[i] = false
			if done {
				return true
			}
		}
		return false
	}
	rec(0)
	if best < 0 {
		return 0 // every placement leaves some pair disconnected
	}
	return best
}

// maxWeightMatching returns the maximum total weight of a set of pairwise
// token-disjoint pairs, by branching over the pair list (≤ n(n−1)/2 ≤ 15
// pairs for the m ≤ 6 instances this package sees).
func maxWeightMatching(pairs []Edge, weights []int) int {
	var rec func(i int, used uint64) int
	rec = func(i int, used uint64) int {
		for ; i < len(pairs); i++ {
			if weights[i] > 0 {
				break
			}
		}
		if i == len(pairs) {
			return 0
		}
		// Skip pair i.
		bestW := rec(i+1, used)
		// Take pair i when both tokens are free.
		bits := uint64(1)<<uint(pairs[i].A) | uint64(1)<<uint(pairs[i].B)
		if used&bits == 0 {
			if w := weights[i] + rec(i+1, used|bits); w > bestW {
				bestW = w
			}
		}
		return bestW
	}
	return rec(0, 0)
}
