package exact

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/revlib"
)

// goldenDescent is what TestDescentGolden pins of one SAT solve: the whole
// work record and the outcome, without wall times.
type goldenDescent struct {
	Counters
	Cost, BoundGap    int
	Minimal, Degraded bool
	Err               string
}

// TestDescentGolden pins the SAT bound descent, plain and §4.1, linear and
// binary, under the settings that steer it: the defaults, a StartBound one
// below the optimum (the relax path), the unseeded single-guard baseline,
// and two conflict budgets with anytime returns (at 300 the plain descent
// on ex-1_166 returns a degraded incumbent, at 200 it has none yet). The
// search is deterministic, so a refactor of the descent must leave every
// record unchanged; a change to the search updates the table in the same
// commit.
func TestDescentGolden(t *testing.T) {
	want := map[string]goldenDescent{
		"ex-1_166/exact-subsets/binary/baseline":   {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 1051, BoundProbes: 3, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/binary/budget-200": {Counters: Counters{SATSolves: 3, SATEncodes: 1, SATConflicts: 604, BoundProbes: 2, BoundJumps: 1, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 1, OrbitHits: 0}, Cost: 16, BoundGap: 8, Minimal: false, Degraded: true, Err: ""},
		"ex-1_166/exact-subsets/binary/budget-300": {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 1105, BoundProbes: 3, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/binary/defaults":   {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 1105, BoundProbes: 3, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/binary/relax":      {Counters: Counters{SATSolves: 7, SATEncodes: 1, SATConflicts: 1346, BoundProbes: 6, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 3, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/linear/baseline":   {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 1118, BoundProbes: 3, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 1, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/linear/budget-200": {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 808, BoundProbes: 3, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 16, BoundGap: 9, Minimal: false, Degraded: true, Err: ""},
		"ex-1_166/exact-subsets/linear/budget-300": {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 1203, BoundProbes: 3, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/linear/defaults":   {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 998, BoundProbes: 3, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact-subsets/linear/relax":      {Counters: Counters{SATSolves: 7, SATEncodes: 1, SATConflicts: 1820, BoundProbes: 6, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 3, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact/binary/baseline":           {Counters: Counters{SATSolves: 8, SATEncodes: 1, SATConflicts: 1662, BoundProbes: 7, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact/binary/budget-200":         {Counters: Counters{SATSolves: 1, SATEncodes: 1, SATConflicts: 200, BoundProbes: 0, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 0, BoundGap: 0, Minimal: false, Degraded: false, Err: "exact: conflict budget exhausted before any mapping was found"},
		"ex-1_166/exact/binary/budget-300":         {Counters: Counters{SATSolves: 2, SATEncodes: 1, SATConflicts: 580, BoundProbes: 1, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 198, BoundGap: 198, Minimal: false, Degraded: true, Err: ""},
		"ex-1_166/exact/binary/defaults":           {Counters: Counters{SATSolves: 8, SATEncodes: 1, SATConflicts: 1043, BoundProbes: 7, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact/binary/relax":              {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 583, BoundProbes: 5, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact/linear/baseline":           {Counters: Counters{SATSolves: 29, SATEncodes: 1, SATConflicts: 2415, BoundProbes: 28, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact/linear/budget-200":         {Counters: Counters{SATSolves: 1, SATEncodes: 1, SATConflicts: 200, BoundProbes: 0, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 0, BoundGap: 0, Minimal: false, Degraded: false, Err: "exact: conflict budget exhausted before any mapping was found"},
		"ex-1_166/exact/linear/budget-300":         {Counters: Counters{SATSolves: 2, SATEncodes: 1, SATConflicts: 580, BoundProbes: 1, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 198, BoundGap: 198, Minimal: false, Degraded: true, Err: ""},
		"ex-1_166/exact/linear/defaults":           {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 983, BoundProbes: 5, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ex-1_166/exact/linear/relax":              {Counters: Counters{SATSolves: 7, SATEncodes: 1, SATConflicts: 1311, BoundProbes: 6, BoundJumps: 1, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 12, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/binary/baseline":   {Counters: Counters{SATSolves: 5, SATEncodes: 1, SATConflicts: 1254, BoundProbes: 4, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/binary/budget-200": {Counters: Counters{SATSolves: 2, SATEncodes: 1, SATConflicts: 225, BoundProbes: 1, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 20, BoundGap: 20, Minimal: false, Degraded: true, Err: ""},
		"ham3_102/exact-subsets/binary/budget-300": {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 1432, BoundProbes: 5, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 4, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/binary/defaults":   {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 1732, BoundProbes: 5, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 4, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/binary/relax":      {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 1540, BoundProbes: 5, BoundJumps: 1, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 3, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/linear/baseline":   {Counters: Counters{SATSolves: 7, SATEncodes: 1, SATConflicts: 951, BoundProbes: 6, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 1, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/linear/budget-200": {Counters: Counters{SATSolves: 2, SATEncodes: 1, SATConflicts: 225, BoundProbes: 1, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 20, BoundGap: 20, Minimal: false, Degraded: true, Err: ""},
		"ham3_102/exact-subsets/linear/budget-300": {Counters: Counters{SATSolves: 2, SATEncodes: 1, SATConflicts: 325, BoundProbes: 1, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 20, BoundGap: 20, Minimal: false, Degraded: true, Err: ""},
		"ham3_102/exact-subsets/linear/defaults":   {Counters: Counters{SATSolves: 4, SATEncodes: 1, SATConflicts: 1287, BoundProbes: 3, BoundJumps: 1, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact-subsets/linear/relax":      {Counters: Counters{SATSolves: 5, SATEncodes: 1, SATConflicts: 1439, BoundProbes: 4, BoundJumps: 1, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 2, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact/binary/baseline":           {Counters: Counters{SATSolves: 8, SATEncodes: 1, SATConflicts: 2082, BoundProbes: 7, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact/binary/budget-200":         {Counters: Counters{SATSolves: 1, SATEncodes: 1, SATConflicts: 200, BoundProbes: 0, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 0, BoundGap: 0, Minimal: false, Degraded: false, Err: "exact: conflict budget exhausted before any mapping was found"},
		"ham3_102/exact/binary/budget-300":         {Counters: Counters{SATSolves: 1, SATEncodes: 1, SATConflicts: 300, BoundProbes: 0, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 0, BoundGap: 0, Minimal: false, Degraded: false, Err: "exact: conflict budget exhausted before any mapping was found"},
		"ham3_102/exact/binary/defaults":           {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 1157, BoundProbes: 5, BoundJumps: 1, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact/binary/relax":              {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 818, BoundProbes: 5, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact/linear/baseline":           {Counters: Counters{SATSolves: 30, SATEncodes: 1, SATConflicts: 4971, BoundProbes: 29, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact/linear/budget-200":         {Counters: Counters{SATSolves: 1, SATEncodes: 1, SATConflicts: 200, BoundProbes: 0, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 0, BoundGap: 0, Minimal: false, Degraded: false, Err: "exact: conflict budget exhausted before any mapping was found"},
		"ham3_102/exact/linear/budget-300":         {Counters: Counters{SATSolves: 1, SATEncodes: 1, SATConflicts: 300, BoundProbes: 0, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 0, BoundGap: 0, Minimal: false, Degraded: false, Err: "exact: conflict budget exhausted before any mapping was found"},
		"ham3_102/exact/linear/defaults":           {Counters: Counters{SATSolves: 5, SATEncodes: 1, SATConflicts: 1626, BoundProbes: 4, BoundJumps: 2, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ham3_102/exact/linear/relax":              {Counters: Counters{SATSolves: 6, SATEncodes: 1, SATConflicts: 1407, BoundProbes: 5, BoundJumps: 0, LowerBound: 0, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 0}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ring6/exact-subsets/binary/defaults":      {Counters: Counters{SATSolves: 3, SATEncodes: 1, SATConflicts: 84, BoundProbes: 2, BoundJumps: 1, LowerBound: 7, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 5}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
		"ring6/exact-subsets/linear/defaults":      {Counters: Counters{SATSolves: 3, SATEncodes: 1, SATConflicts: 116, BoundProbes: 2, BoundJumps: 1, LowerBound: 7, SubsetsPruned: 0, CoreFamilyRefutations: 0, OrbitHits: 5}, Cost: 11, BoundGap: 0, Minimal: true, Degraded: false, Err: ""},
	}

	type instance struct {
		name string
		sk   *circuit.Skeleton
		a    *arch.Arch
	}
	var insts []instance
	for _, name := range []string{"ex-1_166", "ham3_102"} {
		b, err := revlib.SuiteByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := circuit.ExtractSkeleton(b.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{name, sk, arch.QX4()})
	}
	// The CI orbit smoke instance: ring6's six connected 3-subsets form
	// one rotation orbit.
	ring := instance{"ring6", mkSkeleton(3, [2]int{0, 1}, [2]int{2, 0}, [2]int{1, 2}, [2]int{0, 2}), arch.Ring(6)}

	got := map[string]goldenDescent{}
	run := func(key string, in instance, subsets bool, opts SATOptions) {
		r, err := Solve(bg, in.sk, in.a, Options{Engine: EngineSAT, UseSubsets: subsets, SAT: opts})
		var g goldenDescent
		if r != nil {
			g = goldenDescent{Counters: r.Counters, Cost: r.Cost, BoundGap: r.BoundGap, Minimal: r.Minimal, Degraded: r.Degraded}
		}
		if err != nil {
			g.Err = err.Error()
		}
		got[key] = g
	}
	for _, in := range insts {
		for _, subsets := range []bool{false, true} {
			method := "exact"
			if subsets {
				method = "exact-subsets"
			}
			ref, err := Solve(bg, in.sk, in.a, Options{Engine: EngineDP, UseSubsets: subsets})
			if err != nil {
				t.Fatal(err)
			}
			for _, binary := range []bool{false, true} {
				mode := "linear"
				if binary {
					mode = "binary"
				}
				for _, s := range []struct {
					name string
					opts SATOptions
				}{
					{"defaults", SATOptions{}},
					{"relax", SATOptions{StartBound: ref.Cost - 1}},
					{"baseline", SATOptions{NoLowerBound: true, NoCoreJumps: true}},
					{"budget-200", SATOptions{MaxConflicts: 200, Anytime: true}},
					{"budget-300", SATOptions{MaxConflicts: 300, Anytime: true}},
				} {
					s.opts.BinaryDescent = binary
					run(strings.Join([]string{in.name, method, mode, s.name}, "/"), in, subsets, s.opts)
				}
			}
		}
	}
	for _, binary := range []bool{false, true} {
		mode := "linear"
		if binary {
			mode = "binary"
		}
		run("ring6/exact-subsets/"+mode+"/defaults", ring, true, SATOptions{BinaryDescent: binary})
	}

	mismatch := len(got) != len(want)
	for key, g := range got {
		if w, ok := want[key]; !ok || w != g {
			mismatch = true
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
	if mismatch {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, key := range keys {
			rec := strings.TrimPrefix(fmt.Sprintf("%#v", got[key]), "exact.goldenDescent")
			rec = strings.ReplaceAll(rec, "exact.", "")
			fmt.Fprintf(&sb, "\t\t%q: %s,\n", key, rec)
		}
		t.Errorf("%d solves recorded, %d pinned; new records:\n%s", len(got), len(want), sb.String())
	}
}
