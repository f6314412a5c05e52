package perm

import "fmt"

// normalizeEdges returns the edges with A ≤ B, duplicates dropped, in the
// order they first appear. It panics on a self-loop or an endpoint outside
// [0, m). Every swap search in this package walks edges in this order, so
// they all pick the same one of several shortest paths.
func normalizeEdges(edges []Edge, m int) []Edge {
	var out []Edge
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		n := e.Normalize()
		if n.A == n.B || n.A < 0 || n.B >= m {
			panic(fmt.Sprintf("perm: invalid edge %+v for m=%d", e, m))
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// SwapSearch finds minimal SWAP counts and paths between mappings by
// breadth-first search over coupling-edge swaps. It needs no Space: a
// search touches only the mappings it reaches, which makes it cheap when
// the mapping space is large and the mappings of interest are close. A
// swap undoes itself, so the distance from a root to a mapping is also the
// distance from that mapping to the root. The buffers are reused from one
// search to the next; a SwapSearch is not safe for concurrent use.
type SwapSearch struct {
	edges []Edge
	dist  map[string]int32 // Mapping.Key → distance from the last root
	// queue holds the discovered mappings back to back, n entries each,
	// and depth their distances.
	queue []int
	depth []int32
	next  Mapping
	buf   []byte
}

// NewSwapSearch returns a search over the coupling edges of an m-qubit
// device.
func NewSwapSearch(m int, edges []Edge) *SwapSearch {
	return &SwapSearch{edges: normalizeEdges(edges, m), dist: make(map[string]int32)}
}

// Search runs a search from root over the whole component of root, after
// which Dist reads the distance of any mapping from it.
func (s *SwapSearch) Search(root Mapping) { s.search(root, nil) }

// search explores outward from root. With stop non-nil it ends as soon as
// it finds stop: by then every mapping closer to root than stop has its
// distance, which is all a walk from stop to root reads.
func (s *SwapSearch) search(root, stop Mapping) {
	clear(s.dist)
	n := len(root)
	s.dist[root.Key()] = 0
	s.queue = append(s.queue[:0], root...)
	s.depth = append(s.depth[:0], 0)
	if cap(s.next) < n {
		s.next = make(Mapping, n)
	}
	next := s.next[:n]
	for head := 0; head < len(s.depth); head++ {
		cur := Mapping(s.queue[head*n : (head+1)*n])
		for _, e := range s.edges {
			swapInto(next, cur, e)
			s.buf = next.AppendKey(s.buf[:0])
			if _, ok := s.dist[string(s.buf)]; ok {
				continue
			}
			s.dist[string(s.buf)] = s.depth[head] + 1
			if stop != nil && next.Equal(stop) {
				return
			}
			s.queue = append(s.queue, next...)
			s.depth = append(s.depth, s.depth[head]+1)
		}
	}
}

// Dist returns the minimal number of SWAPs between mp and the last search's
// root, or −1 if that search did not reach mp.
func (s *SwapSearch) Dist(mp Mapping) int {
	s.buf = mp.AppendKey(s.buf[:0])
	if v, ok := s.dist[string(s.buf)]; ok {
		return int(v)
	}
	return -1
}

// SwapPath returns a minimal sequence of edges whose successive
// application transforms from into to, or nil, false if to is unreachable.
// It searches from to until it reaches from, then walks back: from each
// mapping it takes the first edge, in normalized first-seen order, that
// brings it one swap closer to to. Of several shortest paths it therefore
// picks the same one as that rule applied to an all-pairs SwapTable.
func (s *SwapSearch) SwapPath(from, to Mapping) ([]Edge, bool) {
	if from.Equal(to) {
		return nil, true
	}
	s.search(to, from)
	left := s.Dist(from)
	if left < 0 {
		return nil, false
	}
	path := make([]Edge, 0, left)
	cur, next := from.Copy(), make(Mapping, len(from))
	for ; left > 0; left-- {
		stepped := false
		for _, e := range s.edges {
			swapInto(next, cur, e)
			s.buf = next.AppendKey(s.buf[:0])
			if v, ok := s.dist[string(s.buf)]; ok && int(v) == left-1 {
				path = append(path, e)
				cur, next = next, cur
				stepped = true
				break
			}
		}
		if !stepped {
			return nil, false
		}
	}
	return path, true
}

// WeightedSwapSearch is SwapSearch under per-edge SWAP weights: a Dijkstra
// search ordered by total weight, then by swap count, the order of
// WeightedSwapTable. Like SwapSearch it needs no Space and reuses its
// buffers from one search to the next; it is not safe for concurrent use.
type WeightedSwapSearch struct {
	edges  []Edge
	weight []int
	index  map[string]int32 // Mapping.Key → node
	// nodes holds the discovered mappings back to back, n entries each;
	// dist and swaps hold each node's best (weight, swaps) key so far.
	nodes []int
	dist  []int32
	swaps []int16
	heap  wstHeap
	next  Mapping
	buf   []byte
}

// NewWeightedSwapSearch returns a search over the coupling edges of an
// m-qubit device, with weight(e) the SWAP weight of edge e (at least 1).
func NewWeightedSwapSearch(m int, edges []Edge, weight func(Edge) int) *WeightedSwapSearch {
	s := &WeightedSwapSearch{edges: normalizeEdges(edges, m), index: make(map[string]int32)}
	s.weight = edgeWeights(s.edges, weight)
	return s
}

// search explores outward from root in (weight, swaps) order and returns
// the node of stop once it is settled, or −1 if stop is unreachable. By
// then every node whose key is below stop's is settled as well, which is
// all a walk from stop to root reads: any other node differs from the key
// the walk looks for, whatever it holds so far.
func (s *WeightedSwapSearch) search(root, stop Mapping) int32 {
	clear(s.index)
	n := len(root)
	s.index[root.Key()] = 0
	s.nodes = append(s.nodes[:0], root...)
	s.dist = append(s.dist[:0], 0)
	s.swaps = append(s.swaps[:0], 0)
	s.heap = append(s.heap[:0], wstItem{})
	if cap(s.next) < n {
		s.next = make(Mapping, n)
	}
	next := s.next[:n]
	target := int32(-1)
	for len(s.heap) > 0 {
		it := s.heap.pop()
		a := it.node
		if it.w != s.dist[a] || it.s != s.swaps[a] {
			continue // stale entry
		}
		if a == target {
			return a
		}
		cur := Mapping(s.nodes[int(a)*n : int(a+1)*n])
		for ei, e := range s.edges {
			swapInto(next, cur, e)
			nw, ns := it.w+int32(s.weight[ei]), it.s+1
			s.buf = next.AppendKey(s.buf[:0])
			b, seen := s.index[string(s.buf)]
			switch {
			case !seen:
				b = int32(len(s.dist))
				s.index[string(s.buf)] = b
				s.nodes = append(s.nodes, next...)
				s.dist = append(s.dist, nw)
				s.swaps = append(s.swaps, ns)
				if target < 0 && next.Equal(stop) {
					target = b
				}
			case (wstItem{w: nw, s: ns}).less(wstItem{w: s.dist[b], s: s.swaps[b]}):
				s.dist[b], s.swaps[b] = nw, ns
			default:
				continue
			}
			s.heap.push(wstItem{nw, ns, b})
		}
	}
	return -1
}

// SwapPath returns the (weight, swaps)-minimal sequence of edges whose
// successive application transforms from into to, or nil, false if to is
// unreachable. It searches from to until from is settled, then walks
// back: from each mapping it takes the first edge, in normalized
// first-seen order, whose swap lands on a mapping that is closer to to by
// exactly that edge's weight and one swap. Of several minimal paths it
// therefore picks the same one as that rule applied to an all-pairs
// WeightedSwapTable.
func (s *WeightedSwapSearch) SwapPath(from, to Mapping) ([]Edge, bool) {
	if from.Equal(to) {
		return nil, true
	}
	ci := s.search(to, from)
	if ci < 0 {
		return nil, false
	}
	path := make([]Edge, 0, s.swaps[ci])
	cur, next := from.Copy(), make(Mapping, len(from))
	for s.swaps[ci] > 0 {
		stepped := false
		for ei, e := range s.edges {
			swapInto(next, cur, e)
			s.buf = next.AppendKey(s.buf[:0])
			if ni, ok := s.index[string(s.buf)]; ok &&
				s.dist[ni] == s.dist[ci]-int32(s.weight[ei]) && s.swaps[ni] == s.swaps[ci]-1 {
				path = append(path, e)
				cur, next, ci = next, cur, ni
				stepped = true
				break
			}
		}
		if !stepped {
			return nil, false
		}
	}
	return path, true
}
