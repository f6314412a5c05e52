package perm

import "testing"

// pathEdges of a 4-vertex path graph 0–1–2–3.
var pathEdges = []Edge{{0, 1}, {1, 2}, {2, 3}}

// TestWeightedTableUniformMatchesBFS: with every weight equal to w the
// weighted table must be exactly w times the BFS swap-count table, with
// identical swap counts along the chosen paths.
func TestWeightedTableUniformMatchesBFS(t *testing.T) {
	const w = 7
	space := NewSpace(4, 3)
	bfs := NewSwapTable(space, pathEdges)
	wt := NewWeightedSwapTable(space, pathEdges, func(Edge) int { return w })
	for a := 0; a < space.Size(); a++ {
		for b := 0; b < space.Size(); b++ {
			d := bfs.MinSwapsIdx(a, b)
			wd, ws := wt.MinWeightIdx(a, b), wt.SwapsAlongIdx(a, b)
			switch {
			case d < 0:
				if wd >= 0 {
					t.Fatalf("(%d,%d): BFS unreachable but weighted dist %d", a, b, wd)
				}
			case wd != w*d || ws != d:
				t.Fatalf("(%d,%d): weighted %d/%d swaps, want %d/%d", a, b, wd, ws, w*d, d)
			}
		}
	}
	if got, want := wt.MaxWeight(), w*bfs.MaxDistance(); got != want {
		t.Errorf("MaxWeight = %d, want %d", got, want)
	}
}

// TestWeightedTableDetour: on a triangle with one expensive edge the
// cheapest realization of a transposition routes around it, spending more
// swaps for less weight.
func TestWeightedTableDetour(t *testing.T) {
	tri := []Edge{{0, 1}, {1, 2}, {0, 2}}
	weightOf := func(e Edge) int {
		if e.Normalize() == (Edge{A: 0, B: 1}) {
			return 25 // dearer than the two-swap detour (2 + 2... see below)
		}
		return 7
	}
	space := NewSpace(3, 3)
	wt := NewWeightedSwapTable(space, tri, weightOf)

	// π swapping logical 0 and 1 directly costs 25 on edge {0,1}; the
	// detour swap(0,2), swap(1,2), swap(0,2) costs 21. Weighted distance
	// picks the detour, swaps-along reports its length 3.
	p := Perm{1, 0, 2}
	if got := wt.PermWeight(p); got != 21 {
		t.Errorf("PermWeight = %d, want 21 (detour)", got)
	}
	if got := wt.PermSwapsAlong(p); got != 3 {
		t.Errorf("PermSwapsAlong = %d, want 3", got)
	}

	// The weighted search materializes exactly that path: length matches
	// SwapsAlongIdx, applying it lands on the target, never touching the
	// expensive edge, and total weight equals MinWeight.
	from, to := IdentityMapping(3), Mapping(p)
	path, ok := NewWeightedSwapSearch(3, tri, weightOf).SwapPath(from, to)
	if !ok {
		t.Fatal("SwapPath failed on a connected space")
	}
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3", len(path))
	}
	cur, total := from.Copy(), 0
	for _, e := range path {
		if e.Normalize() == (Edge{A: 0, B: 1}) {
			t.Fatalf("path %v uses the expensive edge", path)
		}
		total += weightOf(e)
		cur = cur.ApplySwap(e.A, e.B)
	}
	if !cur.Equal(to) {
		t.Fatalf("path %v ends at %v, want %v", path, cur, to)
	}
	if total != wt.MinWeight(from, to) {
		t.Errorf("path weight %d != MinWeight %d", total, wt.MinWeight(from, to))
	}
}

// TestWeightedTableUnreachable: in a partial mapping space on a
// disconnected graph, mappings across components are unreachable (−1), and
// the weighted search's SwapPath reports false.
func TestWeightedTableUnreachable(t *testing.T) {
	space := NewSpace(4, 1) // one logical qubit on 4 physical
	edges := []Edge{{0, 1}, {2, 3}}
	weight := func(Edge) int { return 7 }
	wt := NewWeightedSwapTable(space, edges, weight)
	from := Mapping{0} // logical 0 on physical 0
	to := Mapping{2}   // ... on physical 2, in the other component
	if got := wt.MinWeight(from, to); got != -1 {
		t.Errorf("MinWeight across components = %d, want -1", got)
	}
	if _, ok := NewWeightedSwapSearch(4, edges, weight).SwapPath(from, to); ok {
		t.Error("SwapPath across components succeeded")
	}
}

func TestWeightedTableRejectsBadWeights(t *testing.T) {
	zero := func(Edge) int { return 0 }
	for name, build := range map[string]func(){
		"table":  func() { NewWeightedSwapTable(NewSpace(2, 2), []Edge{{0, 1}}, zero) },
		"search": func() { NewWeightedSwapSearch(2, []Edge{{0, 1}}, zero) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: weight 0 did not panic", name)
				}
			}()
			build()
		}()
	}
}
