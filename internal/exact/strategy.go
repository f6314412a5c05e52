// Package exact determines minimal (or close-to-minimal) mappings of
// quantum circuits to IBM QX architectures, implementing the paper's
// methodology (§3) and its performance improvements (§4):
//
//   - A SAT engine that hands the symbolic formulation of internal/encoder
//     to the CDCL solver and tightens a cost bound until unsatisfiability
//     proves minimality. One bound descent (sat_engine.go) serves both a
//     single architecture and the §4.1 subset family (shared.go).
//   - An independent dynamic-programming engine over (frame × mapping)
//     states, exact for the small mapping spaces of the 5-qubit IBM
//     devices, used both standalone and as a cross-check of the SAT engine.
//   - The physical-qubit subset optimization (§4.1).
//   - The permutation-restriction strategies (§4.2): disjoint qubits, odd
//     gates, and qubit triangle.
package exact

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
)

// Strategy selects the set G' of gates before which the mapping may change
// (paper §4.2). StrategyAll guarantees minimality; the others trade
// optimality guarantees for smaller search spaces.
type Strategy int

const (
	// StrategyAll allows permutations before every gate (paper §3):
	// minimality is guaranteed.
	StrategyAll Strategy = iota
	// StrategyDisjoint allows permutations only before each cluster of
	// consecutive gates acting on disjoint qubit sets.
	StrategyDisjoint
	// StrategyOdd allows permutations only before gates with an odd
	// 1-based index (except g1).
	StrategyOdd
	// StrategyTriangle clusters the circuit into sequences acting on at
	// most three qubits, which fit a coupling triangle; permutations occur
	// only between clusters.
	StrategyTriangle
)

// strategyNames is the single ordered definition of the strategy names,
// indexed by the Strategy constants. String, ParseStrategy and Strategies
// all derive from it, matching the ParseMethod/ParseEngine idiom: ordered
// (deterministic) scans and errors that enumerate the valid names.
var strategyNames = [...]string{
	StrategyAll:      "all",
	StrategyDisjoint: "disjoint",
	StrategyOdd:      "odd",
	StrategyTriangle: "triangle",
}

// String returns the strategy's short name.
func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Strategies returns the canonical strategy names in constant order — the
// valid inputs to ParseStrategy (and the CLIs' -strategy flags).
func Strategies() []string {
	return append([]string(nil), strategyNames[:]...)
}

// ParseStrategy converts a short name to a Strategy. The scan over the
// ordered name table is deterministic, and the error lists every valid
// name.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("exact: unknown strategy %q (valid: %s)", name, strings.Join(Strategies(), ", "))
}

// PermBefore computes the permutation-point vector for a skeleton under the
// strategy: PermBefore[k] is true iff gate k ∈ G'. Index 0 is always false
// (the initial mapping is free).
func PermBefore(sk *circuit.Skeleton, s Strategy) []bool {
	pb := make([]bool, sk.Len())
	switch s {
	case StrategyAll:
		for k := 1; k < len(pb); k++ {
			pb[k] = true
		}
	case StrategyDisjoint:
		for _, layer := range sk.DisjointLayers() {
			if first := layer[0]; first > 0 {
				pb[first] = true
			}
		}
	case StrategyOdd:
		// 1-based odd gate indices except g1: g3, g5, … → 0-based 2, 4, …
		for k := 2; k < len(pb); k += 2 {
			pb[k] = true
		}
	case StrategyTriangle:
		for _, cluster := range sk.QubitClusters(3) {
			if first := cluster[0]; first > 0 {
				pb[first] = true
			}
		}
	default:
		panic("exact: unknown strategy")
	}
	return pb
}

// CountPermPoints returns |G'|: the number of gates before which a
// permutation is allowed. (The paper's |G'| table column additionally
// counts the free initial mapping, i.e. reports this value plus one.)
func CountPermPoints(pb []bool) int {
	n := 0
	for k := 1; k < len(pb); k++ {
		if pb[k] {
			n++
		}
	}
	return n
}
