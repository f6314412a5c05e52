package perm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Mapping is an injective assignment of logical qubits to physical qubits:
// m[j] = i means logical qubit j is held by physical qubit i. A Mapping over
// n logical and m physical qubits has length n with distinct values in
// [0, m).
type Mapping []int

// IdentityMapping returns the mapping j ↦ j for n logical qubits.
func IdentityMapping(n int) Mapping {
	m := make(Mapping, n)
	for j := range m {
		m[j] = j
	}
	return m
}

// Valid reports whether the mapping is injective with all values in [0, m).
func (mp Mapping) Valid(m int) bool {
	seen := make([]bool, m)
	for _, i := range mp {
		if i < 0 || i >= m || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// Copy returns a copy of the mapping.
func (mp Mapping) Copy() Mapping { return append(Mapping(nil), mp...) }

// Equal reports whether two mappings are identical.
func (mp Mapping) Equal(o Mapping) bool {
	if len(mp) != len(o) {
		return false
	}
	for j, i := range mp {
		if o[j] != i {
			return false
		}
	}
	return true
}

// PhysToLogical returns the inverse view: r[i] = logical qubit held by
// physical qubit i, or −1 if i is unoccupied.
func (mp Mapping) PhysToLogical(m int) []int {
	r := make([]int, m)
	for i := range r {
		r[i] = -1
	}
	for j, i := range mp {
		r[i] = j
	}
	return r
}

// ApplySwap returns the mapping after exchanging the states of physical
// qubits a and b: any logical qubit on a moves to b and vice versa.
func (mp Mapping) ApplySwap(a, b int) Mapping {
	r := mp.Copy()
	for j, i := range r {
		switch i {
		case a:
			r[j] = b
		case b:
			r[j] = a
		}
	}
	return r
}

// ApplyPerm returns π∘σ: the mapping after permuting physical-qubit states
// by π (paper Eq. 3: logical j on physical i moves to physical π(i)).
func (mp Mapping) ApplyPerm(p Perm) Mapping {
	r := make(Mapping, len(mp))
	for j, i := range mp {
		r[j] = p[i]
	}
	return r
}

// String renders the mapping as "q0→p2 q1→p0 …".
func (mp Mapping) String() string {
	s := ""
	for j, i := range mp {
		if j > 0 {
			s += " "
		}
		s += fmt.Sprintf("q%d→p%d", j, i)
	}
	return s
}

// Key encodes a mapping as a string usable as a map key. Each physical
// index is written as an unsigned varint, a prefix-free code, so distinct
// mappings of any size always have distinct keys.
func (mp Mapping) Key() string { return string(mp.AppendKey(nil)) }

// AppendKey appends the bytes of mp.Key() to dst; a map lookup with
// string(mp.AppendKey(buf[:0])) costs no allocation.
func (mp Mapping) AppendKey(dst []byte) []byte {
	for _, i := range mp {
		if uint(i) < 0x80 {
			dst = append(dst, byte(i)) // the one-byte varint, inlined
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	return dst
}

// packWidth returns the bit width of m−1: the fewest bits that hold every
// physical index of an m-qubit device.
func packWidth(m int) uint {
	if m < 2 {
		return 0
	}
	return uint(bits.Len(uint(m - 1)))
}

// pack packs mp into width bits per logical qubit. For indices below
// 2^width (width = packWidth(m) on an m-qubit device) distinct mappings
// get distinct keys as long as len(mp)·width ≤ 64; beyond that, use Key.
func (mp Mapping) pack(width uint) uint64 {
	var k uint64
	for j, i := range mp {
		k |= uint64(i) << (width * uint(j))
	}
	return k
}

// swapInto writes into dst the mapping src after exchanging the states of
// physical qubits e.A and e.B (ApplySwap without the allocation).
func swapInto(dst, src Mapping, e Edge) {
	for j, i := range src {
		switch i {
		case e.A:
			dst[j] = e.B
		case e.B:
			dst[j] = e.A
		default:
			dst[j] = i
		}
	}
}

// Space enumerates all injective mappings of n logical qubits into m
// physical qubits and assigns each a dense index, enabling O(1) lookups in
// precomputed distance tables. The total count is m!/(m−n)!.
type Space struct {
	M, N     int
	Mappings []Mapping
	// width is packWidth(m): the index is keyed by pack(width), which
	// under NewSpace's 10M-mapping cap needs at most 40 bits.
	width uint
	index map[uint64]int
}

// NewSpace builds the mapping space for n logical and m physical qubits.
// It panics if the space would exceed 10 million mappings (the architectures
// evaluated exhaustively here have m ≤ 5: at most 120 mappings).
func NewSpace(m, n int) *Space {
	if n < 0 || m < n {
		panic(fmt.Sprintf("perm: invalid mapping space m=%d n=%d", m, n))
	}
	count := 1
	for i := 0; i < n; i++ {
		count *= m - i
		if count > 10_000_000 {
			panic(fmt.Sprintf("perm: mapping space m=%d n=%d too large", m, n))
		}
	}
	s := &Space{M: m, N: n, width: packWidth(m), index: make(map[uint64]int, count)}
	cur := make(Mapping, n)
	used := make([]bool, m)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			s.index[cur.pack(s.width)] = len(s.Mappings)
			s.Mappings = append(s.Mappings, cur.Copy())
			return
		}
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur[j] = i
			rec(j + 1)
			used[i] = false
		}
	}
	rec(0)
	return s
}

// Size returns the number of mappings in the space.
func (s *Space) Size() int { return len(s.Mappings) }

// Index returns the dense index of mp, or −1 if mp is not in the space.
func (s *Space) Index(mp Mapping) int {
	if len(mp) != s.N {
		return -1
	}
	for _, i := range mp {
		if i < 0 || i >= s.M {
			return -1
		}
	}
	idx, ok := s.index[mp.pack(s.width)]
	if !ok {
		return -1
	}
	return idx
}

// Mapping returns the mapping with dense index idx.
func (s *Space) Mapping(idx int) Mapping { return s.Mappings[idx] }
