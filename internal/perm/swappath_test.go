package perm

import (
	"slices"
	"testing"
)

// swapGraphs are the coupling graphs the breadth-first swap search is
// checked on against the all-pairs table: both IBM QX devices, a line, a
// ring, a star listing one edge twice (once reversed) and a graph of two
// disconnected triangles.
var swapGraphs = []struct {
	name  string
	m     int
	edges []Edge
}{
	{"qx4", 5, qx4Edges()},
	{"qx2", 5, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 2}, {3, 4}, {4, 2}}},
	{"line5", 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
	{"ring6", 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}},
	{"star5-dup", 5, []Edge{{0, 1}, {0, 2}, {3, 0}, {0, 4}, {2, 0}}},
	{"two-triangles6", 6, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}},
}

// TestSwapPathMatchesTable checks that SwapSearch.SwapPath returns exactly
// the all-pairs table's path, tableSwapPath (or the same unreachability),
// for every ordered pair of mappings, n ≤ m, on every graph; the six-qubit
// graphs stop at n = 3 to keep the pair count down. This is the invariant
// Result.Ops relies on to emit the same SWAPs without the table.
func TestSwapPathMatchesTable(t *testing.T) {
	pairs := 0
	for _, g := range swapGraphs {
		maxN := g.m
		if g.m > 5 {
			maxN = 3
		}
		for n := 1; n <= maxN; n++ {
			s := NewSpace(g.m, n)
			tbl := NewSwapTable(s, g.edges)
			search := NewSwapSearch(g.m, g.edges)
			for _, from := range s.Mappings {
				for _, to := range s.Mappings {
					pairs++
					want, wantOK := tableSwapPath(tbl, from, to)
					got, gotOK := search.SwapPath(from, to)
					if gotOK != wantOK || !slices.Equal(got, want) {
						t.Fatalf("%s n=%d %v→%v: SwapPath = %v, %v; table = %v, %v",
							g.name, n, from, to, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
	t.Logf("%d ordered pairs", pairs)
}

// weightedTableSwapPath is the reference minimal path over the all-pairs
// weighted table: from each mapping it takes the first edge, in t.Edges
// order, whose swap steps onto a (weight, swaps)-minimal path to to.
// WeightedSwapSearch.SwapPath must return exactly this path for every pair.
func weightedTableSwapPath(t *WeightedSwapTable, from, to Mapping) ([]Edge, bool) {
	a, b := t.Space.Index(from), t.Space.Index(to)
	if t.dist[a][b] < 0 {
		return nil, false
	}
	var path []Edge
step:
	for a != b {
		for ei, e := range t.Edges {
			nb := t.Space.Index(t.Space.Mapping(a).ApplySwap(e.A, e.B))
			if t.dist[nb][b] == t.dist[a][b]-int32(t.weight[ei]) && t.swaps[nb][b] == t.swaps[a][b]-1 {
				path, a = append(path, e), nb
				continue step
			}
		}
		return nil, false
	}
	return path, true
}

// TestWeightedSwapPathMatchesTable checks that WeightedSwapSearch.SwapPath
// returns exactly the weighted table's path, weightedTableSwapPath (or the
// same unreachability), for every ordered pair of mappings, n ≤ m, on
// every graph, under weights 1–3 that tie on many edges and paths; the
// six-qubit graphs stop at n = 3. This is the invariant Result.Ops relies
// on under a non-uniform cost model.
func TestWeightedSwapPathMatchesTable(t *testing.T) {
	weight := func(e Edge) int { return 1 + (e.A+2*e.B)%3 }
	pairs := 0
	for _, g := range swapGraphs {
		maxN := g.m
		if g.m > 5 {
			maxN = 3
		}
		for n := 1; n <= maxN; n++ {
			s := NewSpace(g.m, n)
			tbl := NewWeightedSwapTable(s, g.edges, weight)
			search := NewWeightedSwapSearch(g.m, g.edges, weight)
			for _, from := range s.Mappings {
				for _, to := range s.Mappings {
					pairs++
					want, wantOK := weightedTableSwapPath(tbl, from, to)
					got, gotOK := search.SwapPath(from, to)
					if gotOK != wantOK || !slices.Equal(got, want) {
						t.Fatalf("%s n=%d %v→%v: SwapPath = %v, %v; table = %v, %v",
							g.name, n, from, to, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
	t.Logf("%d ordered pairs", pairs)
}

// TestSwapSearchDistMatchesTable checks the unstopped search: the distance of
// every mapping from a root is the table's, −1 where unreachable.
func TestSwapSearchDistMatchesTable(t *testing.T) {
	for _, g := range swapGraphs {
		s := NewSpace(g.m, g.m)
		tbl := NewSwapTable(s, g.edges)
		for _, root := range []Mapping{IdentityMapping(g.m), s.Mapping(s.Size() - 1)} {
			d := NewSwapSearch(g.m, g.edges)
			d.Search(root)
			for _, mp := range s.Mappings {
				if got, want := d.Dist(mp), tbl.MinSwaps(root, mp); got != want {
					t.Fatalf("%s root %v: Dist(%v) = %d, table %d", g.name, root, mp, got, want)
				}
			}
		}
	}
}

func TestSwapSearchPanicsOnBadEdge(t *testing.T) {
	for _, e := range []Edge{{0, 0}, {0, 5}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %+v should panic", e)
				}
			}()
			NewSwapSearch(3, []Edge{e})
		}()
	}
}

// TestSwapPathLargeDevice routes one qubit pair across a 127-qubit line,
// where no mapping space or table could be built for 12 qubits: the search
// only visits mappings within the path's distance.
func TestSwapPathLargeDevice(t *testing.T) {
	var edges []Edge
	for i := 0; i+1 < 127; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	from := IdentityMapping(12)
	to := from.Copy()
	to[0], to[1] = 1, 0
	to[11] = 12
	path, ok := NewSwapSearch(127, edges).SwapPath(from, to)
	if !ok || len(path) != 2 {
		t.Fatalf("SwapPath = %v, %v; want 2 swaps", path, ok)
	}
	cur := from
	for _, e := range path {
		cur = cur.ApplySwap(e.A, e.B)
	}
	if !cur.Equal(to) {
		t.Errorf("path %v leads to %v, want %v", path, cur, to)
	}
}
