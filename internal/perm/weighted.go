package perm

import (
	"container/heap"
	"fmt"
)

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
	// next[a][b] = edge index of the first swap on that path, or -1.
	next [][]int16
}

// wstItem is a priority-queue entry for the Dijkstra sweep.
type wstItem struct {
	w    int32
	s    int16
	node int32
}

type wstHeap []wstItem

func (h wstHeap) Len() int { return len(h) }
func (h wstHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].s < h[j].s
}
func (h wstHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wstHeap) Push(x any)   { *h = append(*h, x.(wstItem)) }
func (h *wstHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// NewWeightedSwapTable computes the all-pairs weighted swap-distance table
// by a Dijkstra sweep from every mapping, with weight(e) the SWAP weight
// of coupling edge e (must be ≥ 1 so paths strictly descend).
func NewWeightedSwapTable(space *Space, edges []Edge, weight func(Edge) int) *WeightedSwapTable {
	t := &WeightedSwapTable{Space: space, Edges: normalizeEdges(edges, space.M)}
	for _, e := range t.Edges {
		w := weight(e)
		if w < 1 {
			panic(fmt.Sprintf("perm: swap weight %d on %+v must be >= 1", w, e))
		}
		t.weight = append(t.weight, w)
	}
	size := space.Size()
	t.dist = make([][]int32, size)
	t.swaps = make([][]int16, size)
	t.next = make([][]int16, size)

	neighbor := make([][]int32, size)
	for a := 0; a < size; a++ {
		neighbor[a] = make([]int32, len(t.Edges))
		ma := space.Mapping(a)
		for ei, e := range t.Edges {
			neighbor[a][ei] = int32(space.Index(ma.ApplySwap(e.A, e.B)))
		}
	}

	for src := 0; src < size; src++ {
		d := make([]int32, size)
		s := make([]int16, size)
		for i := range d {
			d[i] = -1
			s[i] = -1
		}
		d[src], s[src] = 0, 0
		h := &wstHeap{{0, 0, int32(src)}}
		for h.Len() > 0 {
			it := heap.Pop(h).(wstItem)
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
					heap.Push(h, wstItem{nw, ns, b})
				}
			}
		}
		t.dist[src] = d
		t.swaps[src] = s
	}
	// First-move table from the completed matrices: next[a][b] = the lowest
	// edge index whose swap steps onto the (weight, swaps)-minimal path.
	for a := 0; a < size; a++ {
		nx := make([]int16, size)
		for i := range nx {
			nx[i] = -1
		}
		for b := 0; b < size; b++ {
			if a == b || t.dist[a][b] <= 0 {
				continue
			}
			for ei := range t.Edges {
				nb := neighbor[a][ei]
				if t.dist[nb][b] == t.dist[a][b]-int32(t.weight[ei]) &&
					t.swaps[nb][b] == t.swaps[a][b]-1 {
					nx[b] = int16(ei)
					break
				}
			}
		}
		t.next[a] = nx
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

// SwapPath returns the edge sequence of the (weight, swaps)-minimal path
// from from to to; its length equals SwapsAlongIdx of the pair. It returns
// nil, false if to is unreachable.
func (t *WeightedSwapTable) SwapPath(from, to Mapping) ([]Edge, bool) {
	a, b := t.Space.Index(from), t.Space.Index(to)
	if a < 0 || b < 0 {
		panic("perm: mapping not in space")
	}
	if t.dist[a][b] < 0 {
		return nil, false
	}
	var path []Edge
	cur := from.Copy()
	ci := a
	for ci != b {
		ei := t.next[ci][b]
		if ei < 0 {
			return nil, false
		}
		e := t.Edges[ei]
		path = append(path, e)
		cur = cur.ApplySwap(e.A, e.B)
		ci = t.Space.Index(cur)
	}
	return path, true
}

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
