package perm

// Edge is an undirected coupling-graph edge between two physical qubits.
// SWAP operations are insertable on any coupled pair regardless of CNOT
// direction (a SWAP decomposes into 3 CNOTs + 4 H in either orientation,
// paper Fig. 3).
type Edge struct{ A, B int }

// Normalize returns the edge with A ≤ B.
func (e Edge) Normalize() Edge {
	if e.A > e.B {
		return Edge{e.B, e.A}
	}
	return e
}

// SwapTable holds all-pairs minimal swap distances between the injective
// mappings of a Space under a fixed set of coupling edges. It realizes the
// paper's swaps(π) cost function (Eq. 5) generalized to partial mappings
// (n < m), where unoccupied physical qubits may be used as routing space.
type SwapTable struct {
	Space *Space
	Edges []Edge
	// dist[a][b] = minimal number of SWAPs transforming mapping a into b,
	// or -1 if unreachable (disconnected coupling graph).
	dist [][]int16
}

// NewSwapTable computes the all-pairs swap-distance table by breadth-first
// search from every mapping. Complexity O(|Space|² + |Space|·|Edges|),
// trivial for the ≤120-mapping spaces of the 5-qubit IBM QX devices.
func NewSwapTable(space *Space, edges []Edge) *SwapTable {
	t := &SwapTable{Space: space, Edges: normalizeEdges(edges, space.M)}
	size := space.Size()
	t.dist = make([][]int16, size)

	// Precompute the neighbor structure once: neighbor[a][e] is the index
	// of the mapping obtained from mapping a by swapping edge e.
	neighbor := make([][]int32, size)
	for a := 0; a < size; a++ {
		neighbor[a] = make([]int32, len(t.Edges))
		ma := space.Mapping(a)
		for ei, e := range t.Edges {
			neighbor[a][ei] = int32(space.Index(ma.ApplySwap(e.A, e.B)))
		}
	}

	queue := make([]int32, 0, size)
	for src := 0; src < size; src++ {
		d := make([]int16, size)
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue = queue[:0]
		queue = append(queue, int32(src))
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for ei := range t.Edges {
				b := neighbor[a][ei]
				if d[b] == -1 {
					d[b] = d[a] + 1
					queue = append(queue, b)
				}
			}
		}
		// BFS gives dist from src to every target; store per-source row.
		t.dist[src] = d
	}
	return t
}

// MinSwaps returns the minimal number of SWAP operations transforming
// mapping from into mapping to, or −1 if unreachable.
func (t *SwapTable) MinSwaps(from, to Mapping) int {
	a, b := t.Space.Index(from), t.Space.Index(to)
	if a < 0 || b < 0 {
		panic("perm: mapping not in space")
	}
	return int(t.dist[a][b])
}

// MinSwapsIdx is MinSwaps on dense indices.
func (t *SwapTable) MinSwapsIdx(a, b int) int { return int(t.dist[a][b]) }

// Reachable reports whether any mapping can be transformed into any other
// (true iff the coupling graph restricted to the space is connected enough).
func (t *SwapTable) Reachable(from, to Mapping) bool {
	return t.MinSwaps(from, to) >= 0
}

// MaxDistance returns the diameter of the swap graph (the largest finite
// pairwise distance), useful for sizing cost encodings.
func (t *SwapTable) MaxDistance() int {
	maxD := 0
	for _, row := range t.dist {
		for _, d := range row {
			if int(d) > maxD {
				maxD = int(d)
			}
		}
	}
	return maxD
}
