package perm

import (
	"testing"
	"testing/quick"
)

// qx4Edges is the undirected edge set of IBM QX4 (paper Fig. 2), 0-based:
// p1..p5 → 0..4. CM = {(1,0),(2,0),(2,1),(3,2),(3,4),(4,2)}.
func qx4Edges() []Edge {
	return []Edge{{1, 0}, {2, 0}, {2, 1}, {3, 2}, {3, 4}, {4, 2}}
}

// tableSwapPath is the reference shortest path over the all-pairs table:
// from each mapping it takes the first edge, in t.Edges order, whose swap
// brings it one step closer to to. SwapSearch.SwapPath must return exactly
// this path for every pair.
func tableSwapPath(t *SwapTable, from, to Mapping) ([]Edge, bool) {
	b := t.Space.Index(to)
	d := t.MinSwaps(from, to)
	if d < 0 {
		return nil, false
	}
	var path []Edge
	cur := from
step:
	for d > 0 {
		for _, e := range t.Edges {
			nb := cur.ApplySwap(e.A, e.B)
			if t.MinSwapsIdx(t.Space.Index(nb), b) == d-1 {
				path, cur, d = append(path, e), nb, d-1
				continue step
			}
		}
		return nil, false
	}
	return path, true
}

func TestNewSwapTableDedupesEdges(t *testing.T) {
	s := NewSpace(3, 3)
	tbl := NewSwapTable(s, []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if len(tbl.Edges) != 2 {
		t.Errorf("got %d edges, want 2", len(tbl.Edges))
	}
}

func TestNewSwapTablePanicsOnBadEdge(t *testing.T) {
	s := NewSpace(3, 3)
	for _, e := range []Edge{{0, 0}, {0, 5}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %+v should panic", e)
				}
			}()
			NewSwapTable(s, []Edge{e})
		}()
	}
}

func TestLineGraphDistances(t *testing.T) {
	// Path 0-1-2 with 3 tokens: moving token from one end to the other.
	s := NewSpace(3, 3)
	tbl := NewSwapTable(s, []Edge{{0, 1}, {1, 2}})
	id := IdentityMapping(3)
	// Adjacent transposition: 1 swap.
	if got := tbl.MinSwaps(id, Mapping{1, 0, 2}); got != 1 {
		t.Errorf("adjacent swap distance = %d, want 1", got)
	}
	// Reversal (0↔2 with middle fixed) on a path of 3 needs 3 swaps.
	if got := tbl.MinSwaps(id, Mapping{2, 1, 0}); got != 3 {
		t.Errorf("reversal distance = %d, want 3", got)
	}
	// Rotation by one: 2 swaps.
	if got := tbl.MinSwaps(id, Mapping{1, 2, 0}); got != 2 {
		t.Errorf("rotation distance = %d, want 2", got)
	}
}

func TestDisconnectedGraphUnreachable(t *testing.T) {
	// Vertices {0,1} and {2,3} disconnected; moving a token across is
	// impossible.
	s := NewSpace(4, 1)
	tbl := NewSwapTable(s, []Edge{{0, 1}, {2, 3}})
	if tbl.Reachable(Mapping{0}, Mapping{2}) {
		t.Error("token should not cross disconnected components")
	}
	if !tbl.Reachable(Mapping{0}, Mapping{1}) {
		t.Error("token should move within component")
	}
	if _, ok := tableSwapPath(tbl, Mapping{0}, Mapping{3}); ok {
		t.Error("SwapPath should fail across components")
	}
}

func TestQX4PermSwapsTable(t *testing.T) {
	// Full permutation space on QX4, priced as the encoder prices it: one
	// search from the identity. Every permutation must be realizable (the
	// graph is connected), identity costs 0, single edge swaps cost 1.
	d := NewSwapSearch(5, qx4Edges())
	d.Search(IdentityMapping(5))
	swaps := func(p Perm) int { return d.Dist(Mapping(p)) }
	if got := swaps(Identity(5)); got != 0 {
		t.Errorf("identity swaps = %d", got)
	}
	for _, e := range qx4Edges() {
		p := Identity(5)
		p[e.A], p[e.B] = p[e.B], p[e.A]
		if got := swaps(p); got != 1 {
			t.Errorf("edge swap %+v costs %d, want 1", e, got)
		}
	}
	// A transposition of non-adjacent qubits costs at least 2; p0↔p4
	// (graph distance 2) costs 3 swaps (move there and back restoring the
	// middle).
	p := Identity(5)
	p[0], p[4] = p[4], p[0]
	if got := swaps(p); got != 3 {
		t.Errorf("p0↔p4 swaps = %d, want 3", got)
	}
	// Every permutation realizable; swaps(π) ≥ unrestricted lower bound.
	for _, pp := range All(5) {
		sw := swaps(pp)
		if sw < 0 {
			t.Fatalf("perm %v unrealizable on connected QX4", pp)
		}
		if sw < pp.MinTranspositions() {
			t.Fatalf("perm %v: swaps %d below free lower bound %d", pp, sw, pp.MinTranspositions())
		}
	}
}

func TestSwapPathRealizesMapping(t *testing.T) {
	s := NewSpace(5, 4)
	tbl := NewSwapTable(s, qx4Edges())
	f := func(ai, bi uint) bool {
		a := s.Mapping(int(ai % uint(s.Size())))
		b := s.Mapping(int(bi % uint(s.Size())))
		path, ok := tableSwapPath(tbl, a, b)
		if !ok {
			return false // QX4 connected: everything reachable
		}
		if len(path) != tbl.MinSwaps(a, b) {
			return false
		}
		cur := a.Copy()
		for _, e := range path {
			cur = cur.ApplySwap(e.A, e.B)
		}
		return cur.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: swap distance is a metric (symmetry + triangle inequality).
func TestSwapDistanceMetric(t *testing.T) {
	s := NewSpace(5, 3)
	tbl := NewSwapTable(s, qx4Edges())
	f := func(ai, bi, ci uint) bool {
		a := int(ai % uint(s.Size()))
		b := int(bi % uint(s.Size()))
		c := int(ci % uint(s.Size()))
		dab := tbl.MinSwapsIdx(a, b)
		dba := tbl.MinSwapsIdx(b, a)
		dac := tbl.MinSwapsIdx(a, c)
		dcb := tbl.MinSwapsIdx(c, b)
		if dab != dba {
			return false
		}
		return dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMaxDistanceQX4(t *testing.T) {
	s := NewSpace(5, 5)
	tbl := NewSwapTable(s, qx4Edges())
	d := tbl.MaxDistance()
	// The QX4 token-swapping diameter is small but positive; it bounds the
	// per-permutation-point cost in the encoder (7·d).
	if d < 3 || d > 8 {
		t.Errorf("QX4 diameter = %d, outside plausible range [3,8]", d)
	}
	t.Logf("QX4 full-permutation token-swap diameter: %d", d)
}
