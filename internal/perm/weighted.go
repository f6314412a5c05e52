package perm

import "fmt"

// WeightedSwapTable is the SwapTable generalized to per-edge SWAP weights:
// dist minimizes total weight instead of swap count, realizing the
// calibration-weighted swaps_w(π) cost. Ties in weight break toward fewer
// swaps, and the swap count along the chosen minimum-weight path is stored
// alongside the weight so decoded solutions can be rematerialized into an
// operation sequence of exactly that length.
//
// With all weights equal to w the table degenerates to w · SwapTable.dist
// — callers should prefer the plain BFS table in that case (it is cheaper
// and the canonical count-minimal path shape).
type WeightedSwapTable struct {
	Space *Space
	Edges []Edge
	// weight[ei] is the SWAP weight of Edges[ei] (≥ 1).
	weight []int
	// dist[a][b] = minimal total weight transforming mapping a into b, or
	// -1 if unreachable.
	dist [][]int32
	// swaps[a][b] = number of SWAPs on the (weight, swaps)-lexicographically
	// minimal path, or -1.
	swaps [][]int16
}

// wstItem is a priority-queue entry of a Dijkstra search: a node and the
// (weight, swaps) key it was reached with.
type wstItem struct {
	w    int32
	s    int16
	node int32
}

// less orders entries by weight, then by swap count.
func (it wstItem) less(o wstItem) bool {
	return it.w < o.w || it.w == o.w && it.s < o.s
}

// wstHeap is a binary min-heap of entries, kept without container/heap so
// that pushing an entry does not box it.
type wstHeap []wstItem

func (h *wstHeap) push(it wstItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *wstHeap) pop() wstItem {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// edgeWeights returns weight(e) for each edge, panicking on a weight
// below 1: every swap must add weight so that paths strictly descend.
func edgeWeights(edges []Edge, weight func(Edge) int) []int {
	ws := make([]int, len(edges))
	for i, e := range edges {
		if ws[i] = weight(e); ws[i] < 1 {
			panic(fmt.Sprintf("perm: swap weight %d on %+v must be >= 1", ws[i], e))
		}
	}
	return ws
}

// NewWeightedSwapTable computes the all-pairs weighted swap-distance table
// by a Dijkstra sweep from every mapping, with weight(e) the SWAP weight
// of coupling edge e (must be ≥ 1 so paths strictly descend).
func NewWeightedSwapTable(space *Space, edges []Edge, weight func(Edge) int) *WeightedSwapTable {
	t := &WeightedSwapTable{Space: space, Edges: normalizeEdges(edges, space.M)}
	t.weight = edgeWeights(t.Edges, weight)
	size := space.Size()
	t.dist = make([][]int32, size)
	t.swaps = make([][]int16, size)

	neighbor := make([][]int32, size)
	for a := 0; a < size; a++ {
		neighbor[a] = make([]int32, len(t.Edges))
		ma := space.Mapping(a)
		for ei, e := range t.Edges {
			neighbor[a][ei] = int32(space.Index(ma.ApplySwap(e.A, e.B)))
		}
	}

	var h wstHeap
	for src := 0; src < size; src++ {
		d := make([]int32, size)
		s := make([]int16, size)
		for i := range d {
			d[i] = -1
			s[i] = -1
		}
		d[src], s[src] = 0, 0
		h = append(h[:0], wstItem{0, 0, int32(src)})
		for len(h) > 0 {
			it := h.pop()
			a := it.node
			if it.w != d[a] || it.s != s[a] {
				continue // stale entry
			}
			for ei := range t.Edges {
				b := neighbor[a][ei]
				nw := d[a] + int32(t.weight[ei])
				ns := s[a] + 1
				if d[b] == -1 || nw < d[b] || (nw == d[b] && ns < s[b]) {
					d[b], s[b] = nw, ns
					h.push(wstItem{nw, ns, b})
				}
			}
		}
		t.dist[src] = d
		t.swaps[src] = s
	}
	return t
}

// MinWeight returns the minimal total SWAP weight transforming mapping
// from into mapping to, or −1 if unreachable.
func (t *WeightedSwapTable) MinWeight(from, to Mapping) int {
	a, b := t.Space.Index(from), t.Space.Index(to)
	if a < 0 || b < 0 {
		panic("perm: mapping not in space")
	}
	return int(t.dist[a][b])
}

// MinWeightIdx is MinWeight on dense indices.
func (t *WeightedSwapTable) MinWeightIdx(a, b int) int { return int(t.dist[a][b]) }

// SwapsAlongIdx returns the SWAP count of the chosen minimum-weight path
// between dense indices, or −1 if unreachable.
func (t *WeightedSwapTable) SwapsAlongIdx(a, b int) int { return int(t.swaps[a][b]) }

// PermWeight computes swaps_w(π) for a full permutation π: the minimal
// total SWAP weight realizing π. Requires a full space (n == m); −1 if π
// is unrealizable.
func (t *WeightedSwapTable) PermWeight(p Perm) int {
	if t.Space.N != t.Space.M {
		panic("perm: PermWeight requires a full mapping space (n == m)")
	}
	if len(p) != t.Space.M {
		panic("perm: permutation size mismatch")
	}
	return t.MinWeight(IdentityMapping(t.Space.M), Mapping(p))
}

// PermSwapsAlong returns the SWAP count of the minimum-weight realization
// of π (the length of the path Ops will rebuild), or −1 if unrealizable.
func (t *WeightedSwapTable) PermSwapsAlong(p Perm) int {
	if t.Space.N != t.Space.M {
		panic("perm: PermSwapsAlong requires a full mapping space (n == m)")
	}
	id := IdentityMapping(t.Space.M)
	a, b := t.Space.Index(id), t.Space.Index(Mapping(p))
	return int(t.swaps[a][b])
}

// MaxWeight returns the largest finite pairwise weighted distance, for
// sizing cost encodings.
func (t *WeightedSwapTable) MaxWeight() int {
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
