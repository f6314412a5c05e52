package sat

import "math"

// ClauseRef is a clause handle: the offset of the clause's header inside the
// solver's flat clause arena. Refs are stable between garbage collections;
// a GC (triggered by reduceDB once enough of the slab is dead) relocates
// live clauses and rewrites every stored ref (clause lists, watcher lists,
// reason slots).
type ClauseRef int32

// NilRef is the "no clause" sentinel, used for decision/assumption reasons.
const NilRef ClauseRef = -1

// Arena clause layout, in int32 words starting at the ref:
//
//	[ref+0] size<<2 | learnt<<1 | deleted
//	[ref+1] LBD (learnt clauses; 0 for problem clauses)
//	[ref+2] activity bits (float32; learnt clauses only)
//	[ref+3 … ref+3+size) literals
//
// The uniform 3-word header keeps relocation trivial: a clause's full extent
// is always headerWords+size regardless of tier. Literals are stored as Lit
// (an int32), so the slab is a single []Lit and lits() is a zero-copy
// subslice — propagation walks contiguous memory instead of chasing a
// per-clause slice header to a separately allocated backing array.
const headerWords = 3

const (
	flagLearnt  = 1 << 1
	flagDeleted = 1 << 0
	flagBits    = 2
)

// arena is the flat clause slab. The zero value is ready to use.
type arena struct {
	data []Lit
	// wasted counts the words occupied by deleted clauses; the solver
	// triggers a compacting GC when it crosses a fraction of the slab.
	wasted int
}

// alloc appends a clause and returns its ref. The slab grows by half when
// it runs out of room: append alone grows a large slice by about a
// quarter, which re-copies a big clause database twice as often and leaves
// twice the garbage, while doubling leaves up to half of a live slab unused.
func (a *arena) alloc(lits []Lit, learnt bool) ClauseRef {
	ref := ClauseRef(len(a.data))
	if need := len(a.data) + headerWords + len(lits); need > cap(a.data) {
		grown := make([]Lit, len(a.data), max(cap(a.data)+cap(a.data)/2, need))
		copy(grown, a.data)
		a.data = grown
	}
	hdr := Lit(len(lits) << flagBits)
	if learnt {
		hdr |= flagLearnt
	}
	a.data = append(a.data, hdr, 0, 0)
	a.data = append(a.data, lits...)
	return ref
}

func (a *arena) size(c ClauseRef) int    { return int(a.data[c]) >> flagBits }
func (a *arena) learnt(c ClauseRef) bool { return a.data[c]&flagLearnt != 0 }

func (a *arena) deleted(c ClauseRef) bool { return a.data[c]&flagDeleted != 0 }

// markDeleted tombstones the clause; the words are reclaimed at the next GC.
func (a *arena) markDeleted(c ClauseRef) {
	if a.data[c]&flagDeleted == 0 {
		a.data[c] |= flagDeleted
		a.wasted += headerWords + a.size(c)
	}
}

// lits returns the clause's literal block — a live view into the slab.
func (a *arena) lits(c ClauseRef) []Lit {
	start := int(c) + headerWords
	return a.data[start : start+a.size(c)]
}

func (a *arena) lbd(c ClauseRef) int         { return int(a.data[c+1]) }
func (a *arena) setLBD(c ClauseRef, lbd int) { a.data[c+1] = Lit(lbd) }

func (a *arena) activity(c ClauseRef) float64 {
	return float64(math.Float32frombits(uint32(a.data[c+2])))
}

func (a *arena) setActivity(c ClauseRef, v float64) {
	a.data[c+2] = Lit(int32(math.Float32bits(float32(v))))
}

// gcInto copies every live clause reachable from refs into dst (in list
// order), rewriting each list entry, and returns a forwarding map for refs
// stored elsewhere (reason slots). Deleted clauses are dropped from the
// lists they appear in.
func (a *arena) gcInto(dst *arena, lists ...*[]ClauseRef) map[ClauseRef]ClauseRef {
	forward := make(map[ClauseRef]ClauseRef)
	for _, list := range lists {
		kept := (*list)[:0]
		for _, c := range *list {
			if a.deleted(c) {
				continue
			}
			nc, ok := forward[c]
			if !ok {
				nc = dst.alloc(a.lits(c), a.learnt(c))
				dst.data[nc+1] = a.data[c+1]
				dst.data[nc+2] = a.data[c+2]
				forward[c] = nc
			}
			kept = append(kept, nc)
		}
		*list = kept
	}
	return forward
}
