package portfolio

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
)

// recordCase is one persisted result of the codec tests.
type recordCase struct {
	name string
	sk   *circuit.Skeleton
	res  *exact.Result
}

// recordCases solves the instances whose records the codec tests cover: a
// DP result on QX4, a SAT result carrying Perms, an exact-subsets result
// with SubsetBack on QX5, and a weighted cost model with swap and H
// overrides.
func recordCases(t testing.TB) []recordCase {
	sk4 := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	sk3 := mkSkeleton(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{0, 1})
	cm, err := arch.NewCostModel("test-cal", arch.PaperSwapUnit, arch.PaperHUnit)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.SetSwapWeight(1, 2, 14); err != nil {
		t.Fatal(err)
	}
	if err := cm.SetHWeight(2, 4, 8); err != nil {
		t.Fatal(err)
	}
	weighted := arch.QX4().MustWithCostModel(cm)
	solve := func(name string, sk *circuit.Skeleton, a *arch.Arch, eo exact.Options) recordCase {
		r, err := exact.Solve(bg, sk, a, eo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return recordCase{name, sk, r}
	}
	cases := []recordCase{
		solve("dp-qx4", sk4, arch.QX4(), exact.Options{Engine: exact.EngineDP}),
		solve("sat-perms", sk4, arch.QX4(), exact.Options{Engine: exact.EngineSAT}),
		solve("subsets-qx5", sk3, arch.QX5(), exact.Options{Engine: exact.EngineDP, UseSubsets: true}),
		solve("weighted", sk4, weighted, exact.Options{Engine: exact.EngineDP}),
	}
	for _, c := range cases {
		sol, p := c.res.Solution, mirror(c.res)
		switch {
		case c.name == "sat-perms" && len(sol.Perms) == 0,
			c.name == "subsets-qx5" && c.res.SubsetBack == nil,
			c.name == "weighted" && (len(p.CostSwapEdges) == 0 || len(p.CostHPairs) == 0):
			t.Fatalf("%s: the solve lacks the fields the case is meant to cover", c.name)
		}
	}
	return cases
}

// canonical returns a copy of p with its empty slices set to nil: the
// layout writes an empty and a nil slice alike.
func canonical(p *persistedResult) persistedResult {
	c := *p
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return c
}

// TestRecordRoundTrip encodes and decodes each case: every persisted field
// comes back, re-encoding gives the same bytes, and the decoded result
// materializes the same op stream.
func TestRecordRoundTrip(t *testing.T) {
	for _, c := range recordCases(t) {
		t.Run(c.name, func(t *testing.T) {
			data, err := EncodeResult(c.res)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeResult(data)
			if err != nil {
				t.Fatal(err)
			}
			if want, have := canonical(mirror(c.res)), canonical(mirror(got)); !reflect.DeepEqual(have, want) {
				t.Fatalf("decoded fields\n%+v\nwant\n%+v", have, want)
			}
			again, err := EncodeResult(got)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("re-encoding differs (%v)", err)
			}
			wantOps, err := c.res.Ops(c.sk)
			if err != nil {
				t.Fatal(err)
			}
			gotOps, err := got.Ops(c.sk)
			if err != nil || !reflect.DeepEqual(gotOps, wantOps) {
				t.Fatalf("decoded result materializes different ops (%v)", err)
			}
		})
	}
}

// TestDecodeResultRejectsInconsistent tampers one field of a valid record
// at a time; each must fail to decode. The first case is a record whose
// last gate names a frame the solution lacks, which once decoded and then
// panicked in Result.Ops on every request for its instance.
func TestDecodeResultRejectsInconsistent(t *testing.T) {
	var sat, sub *exact.Result
	for _, c := range recordCases(t) {
		switch c.name {
		case "sat-perms":
			sat = c.res
		case "subsets-qx5":
			sub = c.res
		}
	}
	tamper := func(r *exact.Result, edit func(p *persistedResult)) []byte {
		p := mirror(r)
		p.FrameMappings = slices.Clone(p.FrameMappings)
		for i := range p.FrameMappings {
			p.FrameMappings[i] = slices.Clone(p.FrameMappings[i])
		}
		p.Perms = slices.Clone(p.Perms)
		for i := range p.Perms {
			p.Perms[i] = slices.Clone(p.Perms[i])
		}
		p.GateFrame = slices.Clone(p.GateFrame)
		p.SubsetBack = slices.Clone(p.SubsetBack)
		edit(p)
		return p.encode()
	}
	last := func(vs []int) *int { return &vs[len(vs)-1] }
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"gate frame past the frames", "record has 6 frames", tamper(sat, func(p *persistedResult) { *last(p.GateFrame) = 99 })},
		{"negative gate frame", "in frame -1", tamper(sat, func(p *persistedResult) { p.GateFrame[0] = -1 })},
		{"decreasing gate frames", "before gate", tamper(sat, func(p *persistedResult) { *last(p.GateFrame) = 0 })},
		{"mapping out of range", "frame 0 mapping", tamper(sat, func(p *persistedResult) { p.FrameMappings[0][0] = 5 })},
		{"mapping not injective", "frame 0 mapping", tamper(sat, func(p *persistedResult) { p.FrameMappings[0][1] = p.FrameMappings[0][0] })},
		{"mappings differ in length", "frame 1 mapping", tamper(sat, func(p *persistedResult) { p.FrameMappings[1] = p.FrameMappings[1][:3] })},
		{"perm not a bijection", "perm 0", tamper(sat, func(p *persistedResult) { p.Perms[0][0] = p.Perms[0][1] })},
		{"perm of the wrong size", "perm 0", tamper(sat, func(p *persistedResult) { p.Perms[0] = []int{0} })},
		{"subset-back repeats a qubit", "not a set of qubits", tamper(sub, func(p *persistedResult) { p.SubsetBack[1] = p.SubsetBack[0] })},
		{"subset-back negative", "not a set of qubits", tamper(sub, func(p *persistedResult) { p.SubsetBack[0] = -1 })},
		{"subset-back short", "subset-back length", tamper(sub, func(p *persistedResult) { p.SubsetBack = p.SubsetBack[1:] })},
		{"arch too large", "1025 qubits", tamper(sat, func(p *persistedResult) { p.ArchQubits = maxRecordQubits + 1 })},
		{"trailing byte", "trailing bytes", append(tamper(sat, func(*persistedResult) {}), 0)},
		{"truncated", "malformed", func() []byte { b := tamper(sat, func(*persistedResult) {}); return b[:len(b)-1] }()},
	}
	if _, err := DecodeResult(tamper(sat, func(*persistedResult) {})); err != nil {
		t.Fatalf("untampered record rejected: %v", err)
	}
	for _, c := range cases {
		if _, err := DecodeResult(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeResult error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodeResult feeds DecodeResult arbitrary bytes: it must never panic,
// whatever it accepts must satisfy the invariants Result.Ops and the hit
// path index by, and re-encoding an accepted record must reach a fixed
// point after one round.
func FuzzDecodeResult(f *testing.F) {
	for _, c := range recordCases(f) {
		data, err := EncodeResult(c.res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("not a record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		checkRecordInvariants(t, r)
		again, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := DecodeResult(again)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if twice, _ := EncodeResult(r2); !bytes.Equal(twice, again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// checkRecordInvariants fails t unless r's gate frames are non-decreasing
// indices of its frames, its frame mappings share one length and are
// injective into the working architecture, its permutations permute the
// architecture's qubits, and its subset map is a set of qubits of the
// architecture's size.
func checkRecordInvariants(t *testing.T, r *exact.Result) {
	t.Helper()
	sol, m := r.Solution, r.WorkArch.NumQubits()
	frames := len(sol.FrameMappings)
	if frames == 0 || len(sol.PermSwaps) != frames-1 || len(sol.Switched) != len(sol.GateFrame) {
		t.Fatalf("%d frames, %d swap counts, %d switch flags for %d gates",
			frames, len(sol.PermSwaps), len(sol.Switched), len(sol.GateFrame))
	}
	for i, mp := range sol.FrameMappings {
		if len(mp) == 0 || len(mp) != len(sol.FrameMappings[0]) || !mp.Valid(m) {
			t.Fatalf("frame %d mapping %v on %d qubits", i, mp, m)
		}
	}
	for k, f := range sol.GateFrame {
		if f < 0 || f >= frames || k > 0 && f < sol.GateFrame[k-1] {
			t.Fatalf("gate frames %v over %d frames", sol.GateFrame, frames)
		}
	}
	if len(sol.Perms) != 0 && len(sol.Perms) != frames-1 {
		t.Fatalf("%d perms for %d frames", len(sol.Perms), frames)
	}
	for i, pm := range sol.Perms {
		if len(pm) != m || !pm.Valid() {
			t.Fatalf("perm %d %v on %d qubits", i, pm, m)
		}
	}
	if r.SubsetBack != nil {
		back := slices.Clone(r.SubsetBack)
		slices.Sort(back)
		if len(back) != m || back[0] < 0 || len(slices.Compact(back)) != m {
			t.Fatalf("subset-back %v for %d qubits", r.SubsetBack, m)
		}
	}
}
