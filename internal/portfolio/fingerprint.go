package portfolio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/exact"
)

// Fingerprint returns a canonical hash of a mapping instance: the CNOT
// skeleton, the architecture's coupling structure and cost model, and
// every semantic option that influences the solution (strategy, §4.1
// subsets, pinned initial mapping). Engine choice and SAT tuning are
// excluded: they change how the minimum is found, not what it is. Two calls with equal fingerprints are guaranteed to have equal
// minimal cost, which makes the fingerprint a sound memoization key. The
// cost model enters via its canonical byte form (units plus sorted
// effective overrides), so two models pricing every edge identically
// fingerprint identically regardless of name or construction order.
func Fingerprint(sk *circuit.Skeleton, a *arch.Arch, opts exact.Options) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	h.Write([]byte("qxmap-portfolio-v2"))
	w(sk.NumQubits)
	w(sk.Len())
	for _, g := range sk.Gates {
		w(g.Control)
		w(g.Target)
	}
	w(a.NumQubits())
	pairs := append([]arch.Pair(nil), a.Pairs()...)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Control != pairs[j].Control {
			return pairs[i].Control < pairs[j].Control
		}
		return pairs[i].Target < pairs[j].Target
	})
	w(len(pairs))
	for _, p := range pairs {
		w(p.Control)
		w(p.Target)
	}
	h.Write(a.Cost().AppendFingerprint(nil))
	w(int(opts.Strategy))
	if opts.UseSubsets {
		w(1)
	} else {
		w(0)
	}
	w(len(opts.InitialMapping))
	for _, i := range opts.InitialMapping {
		w(i)
	}
	return hex.EncodeToString(h.Sum(nil))
}
