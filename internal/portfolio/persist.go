package portfolio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/encoder"
	"repro/internal/exact"
	"repro/internal/perm"
)

// SchemaVersion tags every persisted result record. It is baked into the
// store key, so bumping it makes every record written under the old schema
// an instant miss: stale results self-invalidate instead of being decoded
// under wrong assumptions, and compaction eventually drops their bytes.
// Bump whenever the persisted layout, the encoder's solution semantics or
// the solver's cost model changes. v2 added the working architecture's
// cost model to the record (a v1 record decoded under v2 would silently
// drop a non-uniform model, so the old schema is fully invalidated). v3
// invalidates the records of builds that packed mapping keys into 4 bits
// per physical qubit: on devices above 16 qubits those aliased distinct
// mappings, so a v2 record can hold a solution that ignores a pinned
// initial layout or swap counts taken from the wrong mappings. v4 replaced
// the gob stream of v3 with the varint layout of EncodeResult.
const SchemaVersion = "qxr-v4"

// StoreKey derives the persistent-tier key for an instance fingerprint:
// the schema tag joined with the content hash. Records written under a
// different schema version occupy different keys and are never read back.
func StoreKey(fingerprint string) []byte {
	return []byte(SchemaVersion + "/" + fingerprint)
}

// persistedResult is the mirror of the exact.Result fields a cache hit
// needs: the solution itself, the (possibly subset-restricted) working
// architecture it is expressed over, and the provenance facts (engine,
// minimality, |G'|). Work counters (solves, encodes, conflicts, probes)
// are deliberately not persisted — a result served from disk did no
// solving in this process, so its counters are zero by construction.
type persistedResult struct {
	Cost          int
	FrameMappings [][]int
	GateFrame     []int
	Perms         [][]int
	PermSwaps     []int
	Switched      []bool
	ArchName      string
	ArchQubits    int
	ArchPairs     []arch.Pair
	SubsetBack    []int
	PermPoints    int
	Engine        string
	Minimal       bool
	// Cost model of the working architecture (absent for the default
	// paper model — HasCostModel false). Persisted so a disk-tier hit
	// reconstructs the exact objective the result was proven under;
	// dropping it would make Result.Ops re-derive swap paths against the
	// wrong weights.
	HasCostModel  bool
	CostName      string
	CostSwapUnit  int
	CostHUnit     int
	CostSwapEdges []perm.Edge
	CostSwapWs    []int
	CostHPairs    []arch.Pair
	CostHWs       []int
}

// maxRecordQubits bounds a record's working architecture. Decoding
// builds the architecture's m×m coupling and distance tables, so a
// corrupt qubit count must not reach arch.New; no device this repository
// knows comes near the bound.
const maxRecordQubits = 1 << 10

// mirror copies the persisted fields out of an exact result; the slices
// are shared with it.
func mirror(r *exact.Result) *persistedResult {
	p := &persistedResult{
		Cost:          r.Cost,
		FrameMappings: make([][]int, len(r.Solution.FrameMappings)),
		GateFrame:     r.Solution.GateFrame,
		Perms:         make([][]int, len(r.Solution.Perms)),
		PermSwaps:     r.Solution.PermSwaps,
		Switched:      r.Solution.Switched,
		ArchName:      r.WorkArch.Name(),
		ArchQubits:    r.WorkArch.NumQubits(),
		ArchPairs:     r.WorkArch.Pairs(),
		SubsetBack:    r.SubsetBack,
		PermPoints:    r.PermPoints,
		Engine:        r.Engine,
		Minimal:       r.Minimal,
	}
	for i, m := range r.Solution.FrameMappings {
		p.FrameMappings[i] = []int(m)
	}
	for i, pm := range r.Solution.Perms {
		p.Perms[i] = []int(pm)
	}
	if cm := r.WorkArch.Cost(); !cm.IsPaper() {
		p.HasCostModel = true
		p.CostName = cm.Name()
		p.CostSwapUnit = cm.SwapUnit()
		p.CostHUnit = cm.HUnit()
		p.CostSwapEdges, p.CostSwapWs = cm.SwapOverrides()
		p.CostHPairs, p.CostHWs = cm.HOverrides()
	}
	return p
}

// EncodeResult serializes a cacheable exact result for the persistent
// tier. A record holds the persistedResult fields in declaration order:
// an int is a zig-zag varint (binary.AppendVarint), a bool one byte 0 or
// 1, a string a uvarint byte count and its bytes, and a slice a uvarint
// element count and its elements (a Pair or Edge is its two ints). The
// cost-model fields after HasCostModel are present only when it is 1.
func EncodeResult(r *exact.Result) ([]byte, error) {
	if r == nil || r.Solution == nil || r.WorkArch == nil {
		return nil, fmt.Errorf("portfolio: result not persistable (missing solution or arch)")
	}
	return mirror(r).encode(), nil
}

// encode writes the record layout of EncodeResult.
func (p *persistedResult) encode() []byte {
	w := recordWriter{b: make([]byte, 0, 256)}
	w.int(p.Cost)
	w.count(len(p.FrameMappings))
	for _, m := range p.FrameMappings {
		w.ints(m)
	}
	w.ints(p.GateFrame)
	w.count(len(p.Perms))
	for _, pm := range p.Perms {
		w.ints(pm)
	}
	w.ints(p.PermSwaps)
	w.count(len(p.Switched))
	for _, sw := range p.Switched {
		w.bool(sw)
	}
	w.str(p.ArchName)
	w.int(p.ArchQubits)
	w.pairs(p.ArchPairs)
	w.ints(p.SubsetBack)
	w.int(p.PermPoints)
	w.str(p.Engine)
	w.bool(p.Minimal)
	w.bool(p.HasCostModel)
	if p.HasCostModel {
		w.str(p.CostName)
		w.int(p.CostSwapUnit)
		w.int(p.CostHUnit)
		w.count(len(p.CostSwapEdges))
		for _, e := range p.CostSwapEdges {
			w.int(e.A)
			w.int(e.B)
		}
		w.ints(p.CostSwapWs)
		w.pairs(p.CostHPairs)
		w.ints(p.CostHWs)
	}
	return w.b
}

// decodeRecord parses the layout of EncodeResult. It checks the syntax
// only: every count fits the bytes left, every varint and bool is well
// formed, and nothing trails the record.
func decodeRecord(data []byte) (persistedResult, error) {
	var p persistedResult
	r := recordReader{b: data}
	p.Cost = r.int()
	p.FrameMappings = make([][]int, r.count())
	for i := range p.FrameMappings {
		p.FrameMappings[i] = r.ints()
	}
	p.GateFrame = r.ints()
	p.Perms = make([][]int, r.count())
	for i := range p.Perms {
		p.Perms[i] = r.ints()
	}
	p.PermSwaps = r.ints()
	if n := r.count(); n > 0 {
		p.Switched = make([]bool, n)
		for i := range p.Switched {
			p.Switched[i] = r.bool()
		}
	}
	p.ArchName = r.str()
	p.ArchQubits = r.int()
	p.ArchPairs = r.pairs()
	p.SubsetBack = r.ints()
	p.PermPoints = r.int()
	p.Engine = r.str()
	p.Minimal = r.bool()
	p.HasCostModel = r.bool()
	if p.HasCostModel {
		p.CostName = r.str()
		p.CostSwapUnit = r.int()
		p.CostHUnit = r.int()
		if n := r.count(); n > 0 {
			p.CostSwapEdges = make([]perm.Edge, n)
			for i := range p.CostSwapEdges {
				p.CostSwapEdges[i] = perm.Edge{A: r.int(), B: r.int()}
			}
		}
		p.CostSwapWs = r.ints()
		p.CostHPairs = r.pairs()
		p.CostHWs = r.ints()
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return p, fmt.Errorf("portfolio: decoding result: %w", r.err)
	}
	return p, nil
}

// DecodeResult deserializes a persistent-tier record back into an
// exact.Result, rebuilding the working architecture from its stored
// coupling pairs. The decoded result carries zero work counters: no
// solving happened in this process. Any structural violation — a
// malformed record, an invalid architecture, mismatched slice lengths,
// frame mappings that differ in length or are not injective into the
// architecture, gate frames that decrease or name no frame, permutations
// that are not bijections, a subset map that repeats a qubit — returns an
// error; callers treat it as a cache miss, never as an answer.
func DecodeResult(data []byte) (*exact.Result, error) {
	p, err := decodeRecord(data)
	if err != nil {
		return nil, err
	}
	if p.ArchQubits > maxRecordQubits {
		return nil, fmt.Errorf("portfolio: decoded result arch has %d qubits, more than %d", p.ArchQubits, maxRecordQubits)
	}
	a, err := arch.New(p.ArchName, p.ArchQubits, p.ArchPairs)
	if err != nil {
		return nil, fmt.Errorf("portfolio: decoding result arch: %w", err)
	}
	if p.HasCostModel {
		if len(p.CostSwapEdges) != len(p.CostSwapWs) || len(p.CostHPairs) != len(p.CostHWs) {
			return nil, fmt.Errorf("portfolio: decoded result cost-model override mismatch")
		}
		cm, err := arch.NewCostModel(p.CostName, p.CostSwapUnit, p.CostHUnit)
		if err != nil {
			return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
		}
		for i, e := range p.CostSwapEdges {
			if err := cm.SetSwapWeight(e.A, e.B, p.CostSwapWs[i]); err != nil {
				return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
			}
		}
		for i, pr := range p.CostHPairs {
			if err := cm.SetHWeight(pr.Control, pr.Target, p.CostHWs[i]); err != nil {
				return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
			}
		}
		if a, err = a.WithCostModel(cm); err != nil {
			return nil, fmt.Errorf("portfolio: decoding result cost model: %w", err)
		}
	}
	if len(p.FrameMappings) == 0 {
		return nil, fmt.Errorf("portfolio: decoded result has no frames")
	}
	// Perms is optional (the DP engine never materializes it — swap paths
	// are recovered from the frame mappings), but when present it must
	// align with the transitions, and PermSwaps always must.
	if len(p.PermSwaps) != len(p.FrameMappings)-1 || (len(p.Perms) != 0 && len(p.Perms) != len(p.PermSwaps)) {
		return nil, fmt.Errorf("portfolio: decoded result frame/perm mismatch (%d frames, %d perms, %d swap counts)",
			len(p.FrameMappings), len(p.Perms), len(p.PermSwaps))
	}
	if len(p.GateFrame) != len(p.Switched) {
		return nil, fmt.Errorf("portfolio: decoded result gate/switch mismatch (%d vs %d)",
			len(p.GateFrame), len(p.Switched))
	}
	if p.SubsetBack != nil && len(p.SubsetBack) != p.ArchQubits {
		return nil, fmt.Errorf("portfolio: decoded result subset-back length %d, arch has %d qubits",
			len(p.SubsetBack), p.ArchQubits)
	}
	// seen marks the physical qubits taken by the mapping being checked.
	seen := make([]bool, p.ArchQubits)
	injective := func(vs []int, limit int) bool {
		clear(seen)
		for _, v := range vs {
			if v < 0 || v >= limit || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	sol := &encoder.Solution{
		Cost:          p.Cost,
		FrameMappings: make([]perm.Mapping, len(p.FrameMappings)),
		GateFrame:     p.GateFrame,
		Perms:         make([]perm.Perm, len(p.Perms)),
		PermSwaps:     p.PermSwaps,
		Switched:      p.Switched,
	}
	for i, m := range p.FrameMappings {
		if len(m) == 0 {
			return nil, fmt.Errorf("portfolio: decoded result frame %d is empty", i)
		}
		if len(m) != len(p.FrameMappings[0]) || !injective(m, p.ArchQubits) {
			return nil, fmt.Errorf("portfolio: decoded result frame %d mapping %v is not an injection of %d qubits into %d",
				i, m, len(p.FrameMappings[0]), p.ArchQubits)
		}
		sol.FrameMappings[i] = perm.Mapping(m)
	}
	for k, f := range p.GateFrame {
		if f < 0 || f >= len(p.FrameMappings) {
			return nil, fmt.Errorf("portfolio: decoded result gate %d in frame %d, record has %d frames", k, f, len(p.FrameMappings))
		}
		if k > 0 && f < p.GateFrame[k-1] {
			return nil, fmt.Errorf("portfolio: decoded result gate %d in frame %d, before gate %d's frame %d", k, f, k-1, p.GateFrame[k-1])
		}
	}
	for i, pm := range p.Perms {
		if len(pm) != p.ArchQubits || !injective(pm, p.ArchQubits) {
			return nil, fmt.Errorf("portfolio: decoded result perm %d %v is not a permutation of %d qubits", i, pm, p.ArchQubits)
		}
		sol.Perms[i] = perm.Perm(pm)
	}
	if back := slices.Clone(p.SubsetBack); back != nil {
		slices.Sort(back)
		for i, q := range back {
			if q < 0 || i > 0 && q == back[i-1] {
				return nil, fmt.Errorf("portfolio: decoded result subset-back %v is not a set of qubits", p.SubsetBack)
			}
		}
	}
	return &exact.Result{
		Cost:       p.Cost,
		Solution:   sol,
		WorkArch:   a,
		SubsetBack: p.SubsetBack,
		PermPoints: p.PermPoints,
		Engine:     p.Engine,
		Minimal:    p.Minimal,
	}, nil
}

// recordWriter appends the primitives of the record layout.
type recordWriter struct{ b []byte }

func (w *recordWriter) int(v int)   { w.b = binary.AppendVarint(w.b, int64(v)) }
func (w *recordWriter) count(n int) { w.b = binary.AppendUvarint(w.b, uint64(n)) }

func (w *recordWriter) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *recordWriter) str(s string) {
	w.count(len(s))
	w.b = append(w.b, s...)
}

func (w *recordWriter) ints(vs []int) {
	w.count(len(vs))
	for _, v := range vs {
		w.int(v)
	}
}

func (w *recordWriter) pairs(ps []arch.Pair) {
	w.count(len(ps))
	for _, p := range ps {
		w.int(p.Control)
		w.int(p.Target)
	}
}

// errRecordShort and errRecordMalformed are the syntax errors of a record.
var (
	errRecordShort     = errors.New("record truncated")
	errRecordMalformed = errors.New("malformed varint, bool or count")
)

// recordReader consumes the primitives of the record layout. The first
// error sticks: every later read returns a zero value, so a decoder reads
// straight through and checks err once.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *recordReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail(errRecordMalformed)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads an element count. Every element takes at least one byte,
// so a count above the bytes left is corrupt, and allocation stays
// bounded by the record's size.
func (r *recordReader) count() int {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errRecordMalformed)
		return 0
	}
	r.b = r.b[n:]
	if v > uint64(len(r.b)) {
		r.fail(errRecordShort)
		return 0
	}
	return int(v)
}

func (r *recordReader) bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail(errRecordMalformed)
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *recordReader) str() string {
	n := r.count()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// ints reads an int slice; an empty one reads as nil.
func (r *recordReader) ints() []int {
	n := r.count()
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.int()
	}
	return vs
}

func (r *recordReader) pairs() []arch.Pair {
	n := r.count()
	if n == 0 {
		return nil
	}
	ps := make([]arch.Pair, n)
	for i := range ps {
		ps[i] = arch.Pair{Control: r.int(), Target: r.int()}
	}
	return ps
}
