package perm

import (
	"testing"
	"testing/quick"
)

func TestMappingBasics(t *testing.T) {
	mp := IdentityMapping(3)
	if !mp.Valid(5) {
		t.Error("identity mapping should be valid")
	}
	if !mp.Valid(3) {
		t.Error("identity mapping should be valid with m=n")
	}
	if (Mapping{0, 0}).Valid(3) {
		t.Error("non-injective mapping should be invalid")
	}
	if (Mapping{0, 5}).Valid(3) {
		t.Error("out-of-range mapping should be invalid")
	}
}

func TestPhysToLogical(t *testing.T) {
	mp := Mapping{2, 0} // q0→p2, q1→p0
	r := mp.PhysToLogical(4)
	want := []int{1, -1, 0, -1}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("PhysToLogical = %v, want %v", r, want)
			break
		}
	}
}

func TestApplySwap(t *testing.T) {
	mp := Mapping{2, 0}
	got := mp.ApplySwap(2, 3) // logical 0 moves from p2 to p3
	if !got.Equal(Mapping{3, 0}) {
		t.Errorf("ApplySwap = %v", got)
	}
	// Swapping two occupied qubits exchanges them.
	got = mp.ApplySwap(0, 2)
	if !got.Equal(Mapping{0, 2}) {
		t.Errorf("ApplySwap = %v", got)
	}
	// Swapping two unoccupied qubits is a no-op.
	got = mp.ApplySwap(1, 3)
	if !got.Equal(mp) {
		t.Errorf("ApplySwap = %v", got)
	}
	// Original must be unchanged.
	if !mp.Equal(Mapping{2, 0}) {
		t.Error("ApplySwap mutated receiver")
	}
}

func TestApplyPerm(t *testing.T) {
	mp := Mapping{2, 0}
	p := Perm{1, 2, 0} // p0→p1, p1→p2, p2→p0
	got := mp.ApplyPerm(p)
	if !got.Equal(Mapping{0, 1}) {
		t.Errorf("ApplyPerm = %v, want [0 1]", got)
	}
}

func TestMappingString(t *testing.T) {
	if s := (Mapping{2, 0}).String(); s != "q0→p2 q1→p0" {
		t.Errorf("String = %q", s)
	}
}

func TestSpaceSizes(t *testing.T) {
	cases := []struct{ m, n, want int }{
		{5, 5, 120},
		{5, 4, 120},
		{5, 3, 60},
		{5, 2, 20},
		{4, 4, 24},
		{3, 0, 1},
	}
	for _, tc := range cases {
		s := NewSpace(tc.m, tc.n)
		if s.Size() != tc.want {
			t.Errorf("Space(%d,%d).Size = %d, want %d", tc.m, tc.n, s.Size(), tc.want)
		}
	}
}

func TestSpaceIndexRoundTrip(t *testing.T) {
	s := NewSpace(5, 3)
	for idx := 0; idx < s.Size(); idx++ {
		mp := s.Mapping(idx)
		if got := s.Index(mp); got != idx {
			t.Fatalf("Index(Mapping(%d)) = %d", idx, got)
		}
	}
	if s.Index(Mapping{0, 1}) != -1 {
		t.Error("wrong-length mapping should have index -1")
	}
	if s.Index(Mapping{0, 0, 1}) != -1 {
		t.Error("non-injective mapping should have index -1")
	}
}

func TestSpacePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSpace(2, 3) },
		func() { NewSpace(16, 12) }, // > 10M mappings
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: ApplySwap is an involution and preserves validity.
func TestApplySwapProperties(t *testing.T) {
	s := NewSpace(5, 3)
	f := func(idx, a, b uint) bool {
		mp := s.Mapping(int(idx % uint(s.Size())))
		pa, pb := int(a%5), int(b%5)
		if pa == pb {
			return true
		}
		swapped := mp.ApplySwap(pa, pb)
		return swapped.Valid(5) && swapped.ApplySwap(pa, pb).Equal(mp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSpaceIndexRoundTripWide covers devices above 16 qubits, where a
// 4-bit packing of physical indices made distinct mappings share an index
// (74 of the 380 mappings of NewSpace(20, 2)).
func TestSpaceIndexRoundTripWide(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{20, 2}, {27, 2}, {127, 2}, {17, 3}, {10, 6}} {
		s := NewSpace(tc.m, tc.n)
		for idx, mp := range s.Mappings {
			if got := s.Index(mp); got != idx {
				t.Fatalf("Space(%d,%d): Index(%v) = %d, want %d", tc.m, tc.n, mp, got, idx)
			}
		}
	}
	s := NewSpace(20, 2)
	for _, mp := range []Mapping{{20, 0}, {0, 32}, {-1, 0}} {
		if s.Index(mp) != -1 {
			t.Errorf("Index(%v) outside the space should be -1", mp)
		}
	}
}

// TestKeyCollisionFree checks that Key tells apart mappings that a 4-bit
// packing merged (q0→p19 q1→p0 and q0→p3 q1→p1 both packed to 19), and
// mappings too wide for 64 bits (12 qubits on a 127-qubit device).
func TestKeyCollisionFree(t *testing.T) {
	if (Mapping{19, 0}).Key() == (Mapping{3, 1}).Key() {
		t.Error("keys of [19 0] and [3 1] collide")
	}
	a := IdentityMapping(12)
	for i := range a {
		a[i] = 126 - i
	}
	b := a.Copy()
	b[11], b[0] = b[0], b[11]
	if a.Key() == b.Key() {
		t.Errorf("keys of %v and %v collide", a, b)
	}
	seen := map[any]Mapping{}
	for _, mp := range NewSpace(20, 2).Mappings {
		if prev, ok := seen[mp.Key()]; ok {
			t.Fatalf("keys of %v and %v collide", prev, mp)
		}
		seen[mp.Key()] = mp
	}
	if (Mapping{1, 2}).Key() == (Mapping{1, 2, 0}).Key() {
		t.Error("mappings of different lengths share a key")
	}
}

// TestPack checks the packed key that Space indexes by: packWidth bits per
// index keep [19 0] and [3 1] apart on a 20-qubit device.
func TestPack(t *testing.T) {
	for _, tc := range []struct {
		m    int
		want uint
	}{{0, 0}, {1, 0}, {2, 1}, {5, 3}, {16, 4}, {17, 5}, {20, 5}, {27, 5}, {127, 7}, {300, 9}} {
		if got := packWidth(tc.m); got != tc.want {
			t.Errorf("packWidth(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
	w := packWidth(20)
	if (Mapping{19, 0}).pack(w) == (Mapping{3, 1}).pack(w) {
		t.Error("packed keys of [19 0] and [3 1] collide")
	}
}
