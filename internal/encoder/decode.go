package encoder

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/perm"
	"repro/internal/sat"
)

// Solution is the decoded content of a satisfying assignment: everything
// needed to materialize the mapped circuit (paper Fig. 5).
type Solution struct {
	// Cost is F: the total number of elementary operations added.
	Cost int
	// FrameMappings[f] is the logical→physical mapping active during
	// frame f; FrameMappings[0] is the initial mapping.
	FrameMappings []perm.Mapping
	// GateFrame[k] is the frame of skeleton gate k.
	GateFrame []int
	// Perms[t] is the physical-state permutation applied between frames t
	// and t+1, with PermSwaps[t] the SWAP count of its chosen realization:
	// swaps(π) under the paper model, the length of the cheapest weighted
	// swap path under a non-uniform cost model.
	Perms     []perm.Perm
	PermSwaps []int
	// Switched[k] reports whether skeleton gate k is executed with
	// reversed direction (4 inserted H gates).
	Switched []bool
}

// MappingBeforeGate returns the active mapping just before skeleton gate k.
func (s *Solution) MappingBeforeGate(k int) perm.Mapping {
	return s.FrameMappings[s.GateFrame[k]]
}

// FinalMapping returns the mapping after the last gate.
func (s *Solution) FinalMapping() perm.Mapping {
	return s.FrameMappings[len(s.FrameMappings)-1]
}

// SwapCount returns the total number of SWAP operations inserted.
func (s *Solution) SwapCount() int {
	total := 0
	for _, sw := range s.PermSwaps {
		total += sw
	}
	return total
}

// SwitchCount returns the number of direction-switched CNOTs.
func (s *Solution) SwitchCount() int {
	total := 0
	for _, sw := range s.Switched {
		if sw {
			total++
		}
	}
	return total
}

// Decode reads the solver model into a Solution, validating internal
// consistency (well-formed mappings, permutation links, recomputed cost).
// It must only be called after the underlying solver returned Sat.
func (e *Encoding) Decode() (*Solution, error) {
	return e.decode(e.prob.Arch, e.permSw, e.permW)
}

// decode reads the solver model into a Solution on architecture a, whose
// permutation SWAP counts and costs are permSw and permW, validating
// internal consistency: well-formed mappings, realizable permutations that
// link the frames, gates executable on a's coupling map, and a recomputed
// cost equal to the cost bits. It must only be called after Sat.
func (l *layout) decode(a *arch.Arch, permSw, permW []int) (*Solution, error) {
	n := l.sk.NumQubits
	m := a.NumQubits()
	sol := &Solution{GateFrame: append([]int(nil), l.gateFrame...)}

	for f := range l.X {
		mp := make(perm.Mapping, n)
		for j := 0; j < n; j++ {
			mp[j] = -1
			for i := 0; i < m; i++ {
				if l.litTrue(l.X[f][i][j]) {
					if mp[j] != -1 {
						return nil, fmt.Errorf("encoder: frame %d maps q%d twice", f, j)
					}
					mp[j] = i
				}
			}
			if mp[j] == -1 {
				return nil, fmt.Errorf("encoder: frame %d leaves q%d unmapped", f, j)
			}
		}
		if !mp.Valid(m) {
			return nil, fmt.Errorf("encoder: frame %d mapping %v not injective", f, mp)
		}
		sol.FrameMappings = append(sol.FrameMappings, mp)
	}

	cost := 0
	for t, ys := range l.Y {
		chosen := -1
		for pi, y := range ys {
			if l.litTrue(y) {
				if chosen != -1 {
					return nil, fmt.Errorf("encoder: perm point %d selects two permutations", t)
				}
				chosen = pi
			}
		}
		if chosen == -1 {
			return nil, fmt.Errorf("encoder: perm point %d selects no permutation", t)
		}
		if permSw[chosen] < 0 {
			return nil, fmt.Errorf("encoder: perm point %d selects a permutation unrealizable on %s", t, a)
		}
		pp := l.perms[chosen]
		// The selected permutation must transform frame t into frame t+1.
		if got := sol.FrameMappings[t].ApplyPerm(pp); !got.Equal(sol.FrameMappings[t+1]) {
			return nil, fmt.Errorf("encoder: perm point %d: π%v maps %v to %v, frame has %v",
				t, pp, sol.FrameMappings[t], got, sol.FrameMappings[t+1])
		}
		sol.Perms = append(sol.Perms, pp.Copy())
		sol.PermSwaps = append(sol.PermSwaps, permSw[chosen])
		cost += permW[chosen]
	}

	for k := range l.Z {
		sw := l.litTrue(l.Z[k])
		sol.Switched = append(sol.Switched, sw)
		// Verify executability against the coupling map.
		g := l.sk.Gates[k]
		mp := sol.MappingBeforeGate(k)
		pc, pt := mp[g.Control], mp[g.Target]
		if sw {
			// The gate executes reversed on coupling pair (pt, pc): charge
			// that pair's direction-switch weight (4 in the paper model).
			cost += a.Cost().HWeight(pt, pc)
			if !a.Allows(pt, pc) {
				return nil, fmt.Errorf("encoder: gate %d switched but (%d,%d) not in %s's CM", k, pt, pc, a)
			}
		} else if !a.Allows(pc, pt) {
			return nil, fmt.Errorf("encoder: gate %d forward but (%d,%d) not in %s's CM", k, pc, pt, a)
		}
	}

	sol.Cost = cost
	if fromBits := l.B.Value(l.CostBits); fromBits != cost {
		return nil, fmt.Errorf("encoder: cost bits say %d, %s recomputed %d", fromBits, a, cost)
	}
	return sol, nil
}

func (l *layout) litTrue(x sat.Lit) bool {
	v := l.B.S.Value(x.Var())
	if !x.IsPos() {
		v = !v
	}
	return v
}
