package qxmap

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/verify"
)

// witnessed is a mapped circuit with the op stream it was materialized
// from, which verify.Translation takes as its parse witness.
type witnessed struct {
	c, mapped      *Circuit
	a              *Architecture
	sk             *circuit.Skeleton
	ops            []circuit.MappedOp
	initial, final Mapping
}

// mapWitnessed runs the pipeline's solve and materialize stages.
func mapWitnessed(m *Mapper, c *Circuit, a *Architecture, opts Options) (witnessed, error) {
	sk, err := circuit.ExtractSkeleton(c)
	if err != nil {
		return witnessed{}, err
	}
	plan, err := m.solvePlan(context.Background(), sk, a, opts)
	if err != nil {
		return witnessed{}, err
	}
	mapped, final, err := materialize(c, sk, a, plan.Ops, plan.Initial)
	if err != nil {
		return witnessed{}, err
	}
	return witnessed{c: c, mapped: mapped, a: a, sk: sk, ops: plan.Ops, initial: plan.Initial, final: final}, nil
}

func (w witnessed) check() error {
	return verify.Translation(w.c, w.mapped, w.a, w.ops, w.initial, w.final)
}

// withGates returns w with its mapped gates replaced, and false when one
// of them does not fit the device.
func (w witnessed) withGates(gates []Gate) (witnessed, bool) {
	mapped := NewCircuit(w.mapped.NumQubits())
	for _, g := range gates {
		if mapped.Append(g) != nil {
			return w, false
		}
	}
	w.mapped = mapped
	return w, true
}

// rematerialized returns w with its op stream replaced and its mapped
// circuit materialized from the new one. The final layout stays w's.
func (w witnessed) rematerialized(tb testing.TB, ops []circuit.MappedOp) witnessed {
	tb.Helper()
	mapped, _, err := materialize(w.c, w.sk, w.a, ops, w.initial)
	if err != nil {
		tb.Fatal(err)
	}
	w.ops, w.mapped = ops, mapped
	return w
}

// realized returns the logical direction a CNOT op realizes.
func realized(op circuit.MappedOp) [2]int {
	if op.Switched {
		return [2]int{op.Target, op.Control}
	}
	return [2]int{op.Control, op.Target}
}

// mutants returns altered copies of w, by name, that are not the input
// translated with w's witness and layouts. Witness mutants are chosen so
// that the gates cannot be parsed the other way (see moveSwap).
func mutants(tb testing.TB, w witnessed) map[string]witnessed {
	tb.Helper()
	out := map[string]witnessed{}
	add := func(name string, x witnessed) { out[name] = x }
	gates := w.mapped.Gates()
	m := w.a.NumQubits()
	replaced := func(k int, g Gate) []Gate {
		gs := slices.Clone(gates)
		gs[k] = g
		return gs
	}
	edit := func(name string, gs []Gate) {
		x, ok := w.withGates(gs)
		if !ok {
			tb.Fatalf("%s: mutant does not fit the device", name)
		}
		add(name, x)
	}
	for k, g := range gates {
		edit(fmt.Sprintf("gate %d dropped", k), slices.Delete(slices.Clone(gates), k, k+1))
		edit(fmt.Sprintf("gate %d duplicated", k), slices.Insert(slices.Clone(gates), k, g))
		if g.Kind == circuit.KindCNOT {
			edit(fmt.Sprintf("gate %d flipped", k), replaced(k, circuit.CNOT(g.Qubits[1], g.Qubits[0])))
			continue
		}
		if k+4 < len(gates) && g.Kind == circuit.KindH && gates[k+2].Kind == circuit.KindCNOT {
			// Where gates k..k+4 are a 4-H switch around CNOT(y→x),
			// CNOT(x→y) computes the same but is not native.
			c, tg := gates[k+2].Qubits[0], gates[k+2].Qubits[1]
			edit(fmt.Sprintf("switch at gate %d unwrapped against the coupling map", k),
				slices.Replace(slices.Clone(gates), k, k+5, circuit.CNOT(tg, c)))
		}
		moved := g.Copy()
		moved.Qubits[0] = (g.Qubits[0] + 1) % m
		edit(fmt.Sprintf("gate %d moved one qubit over", k), replaced(k, moved))
		for i, angle := range []*float64{&g.Theta, &g.Phi, &g.Lambda} {
			if g.Kind != circuit.KindU && (g.Kind != circuit.KindRz || i != 2) {
				continue
			}
			was := *angle
			*angle = math.Nextafter(was, math.Inf(1))
			edit(fmt.Sprintf("gate %d angle %d one ulp up", k, i), replaced(k, g.Copy()))
			*angle = was
		}
	}

	withOps := func(name string, ops []circuit.MappedOp) {
		x := w
		x.ops = ops
		add(name, x)
	}
	last := len(w.ops) - 1
	for w.ops[last].Swap {
		last--
	}
	withOps("last CNOT op dropped", slices.Delete(slices.Clone(w.ops), last, last+1))
	withOps("CNOT op added", append(slices.Clone(w.ops), circuit.MappedOp{GateIndex: w.sk.Len(), Control: gates[0].Qubits[0]}))
	for p := 0; p < m; p++ {
		if q := (p + 2) % m; !w.a.AllowsEitherDirection(p, q) {
			withOps("SWAP op on an uncoupled pair first", slices.Insert(slices.Clone(w.ops), 0, circuit.MappedOp{Swap: true, A: p, B: q}))
			break
		}
	}
	for k, op := range w.ops {
		if !op.Swap {
			continue
		}
		withOps("SWAP op dropped", slices.Delete(slices.Clone(w.ops), k, k+1))
		withOps("SWAP op added", slices.Insert(slices.Clone(w.ops), k, op))
		ops := slices.Clone(w.ops)
		for _, e := range w.a.UndirectedEdges() {
			shares := e.A == op.A || e.A == op.B || e.B == op.A || e.B == op.B
			if shares && e != (perm.Edge{A: op.A, B: op.B}).Normalize() {
				ops[k].A, ops[k].B = e.A, e.B // a coupled pair next to the right one
				break
			}
		}
		x := w.rematerialized(tb, ops)
		add("SWAP block on the wrong pair", x)
		x.ops = w.ops
		add("SWAP block on the wrong pair, true witness", x)
		break
	}
	if ops, ok := moveSwap(w.ops); ok {
		withOps("SWAP op moved by one", ops)
	}

	for k := 0; k+1 < len(w.ops); k++ {
		a, b := w.ops[k], w.ops[k+1]
		if !a.Swap && !b.Swap && realized(a) != realized(b) {
			ops := slices.Clone(w.ops)
			ops[k].Control, ops[k].Target, ops[k].Switched = b.Control, b.Target, b.Switched
			ops[k+1].Control, ops[k+1].Target, ops[k+1].Switched = a.Control, a.Target, a.Switched
			add("two CNOTs exchanged", w.rematerialized(tb, ops))
			break
		}
	}
	for k, op := range w.ops {
		if !op.Swap {
			ops := slices.Clone(w.ops)
			ops[k].Switched = !op.Switched
			add("direction switch toggled", w.rematerialized(tb, ops))
			break
		}
	}
	for _, e := range w.a.UndirectedEdges() {
		if e.A == w.final[0] || e.B == w.final[0] {
			ops := append(slices.Clone(w.ops), circuit.MappedOp{Swap: true, A: e.A, B: e.B})
			add("stray SWAP appended", w.rematerialized(tb, ops))
			break
		}
	}

	layout := func(name string, initial, final Mapping) {
		x := w
		x.initial, x.final = initial, final
		add(name, x)
	}
	exchanged := func(mp Mapping) Mapping {
		mp = mp.Copy()
		mp[0], mp[1] = mp[1], mp[0]
		return mp
	}
	layout("final layout exchanged", w.initial, exchanged(w.final))
	layout("initial layout exchanged", exchanged(w.initial), w.final)
	layout("short initial layout", w.initial[1:], w.final)
	twice := w.initial.Copy()
	twice[1] = twice[0]
	layout("initial layout not injective", twice, w.final)
	for p := 0; p < m; p++ {
		if !slices.Contains(w.final, p) {
			off := w.final.Copy()
			off[0] = p
			layout("final layout on a free qubit", w.initial, off)
			break
		}
	}
	return out
}

// moveSwap moves a SWAP op of ops by one, past a neighbouring CNOT op on
// another pair. Past a CNOT op on its own pair the gates can parse both
// ways: CNOT(x→y) then SWAP(x,y) is SWAP(x,y) then CNOT(y→x), and a SWAP
// block can begin with either.
func moveSwap(ops []circuit.MappedOp) ([]circuit.MappedOp, bool) {
	for k, op := range ops {
		if !op.Swap {
			continue
		}
		pair := [2]int{op.A, op.B}
		for _, n := range []int{k + 1, k - 1} {
			if n < 0 || n >= len(ops) || ops[n].Swap {
				continue
			}
			if r := realized(ops[n]); r == pair || r == [2]int{pair[1], pair[0]} {
				continue
			}
			moved := slices.Clone(ops)
			moved[k], moved[n] = moved[n], moved[k]
			return moved, true
		}
	}
	return nil, false
}

// routingFixture is a 5-qubit circuit whose CNOTs touch every pair of
// qubits, between single-qubit gates of most kinds: no device of the
// catalog holds it without SWAPs.
func routingFixture() *Circuit {
	return NewCircuit(5).
		AddH(0).AddU(1, 0.3, -1.1, 2.5).AddX(2).AddRz(3, 0.7).AddT(4).
		AddCNOT(0, 1).AddCNOT(1, 2).MustAppend(circuit.Y(0)).AddCNOT(2, 3).AddCNOT(3, 4).
		AddCNOT(4, 0).AddTdg(2).AddCNOT(0, 2).AddCNOT(1, 3).AddU(4, 1.2, 0.4, -0.9).
		AddCNOT(2, 4).AddCNOT(3, 0).AddMCT([]int{4}, 1).AddSdg(1).AddH(3).AddS(0)
}

// TestTranslationRejectsMutations: the checker accepts the answers of the
// pipeline on QX4, QX2, Tokyo and heavyhex27, and rejects every mutant of
// them — a gate moved, dropped, duplicated, flipped or one ulp off; a SWAP
// block on the wrong pair; a wrong layout; a SWAP op dropped, added or
// moved in the witness — and the corruptions the op-stream replay and the
// GF(2) check used to catch. The x fixtures hold the case those checks
// missed: with no simulation above sim.MaxQubits qubits, the X gate moved
// to the next qubit was rejected on QX4 and accepted on Tokyo.
func TestTranslationRejectsMutations(t *testing.T) {
	m := newTestMapper(t)
	xFixture := NewCircuit(3).AddX(0).AddCNOT(0, 1).AddCNOT(1, 2).AddCNOT(2, 0).AddH(1)
	unwrapped := 0 // mutants only the coupling check rejects
	for _, fx := range []struct {
		name string
		c    *Circuit
		a    *Architecture
		opts Options
	}{
		{"figure1a/ibmqx4/exact", Figure1a(), QX4(), Options{Method: MethodExact, Engine: EngineDP}},
		{"routing/ibmqx4/astar", routingFixture(), QX4(), Options{Method: MethodAStar}},
		{"routing/ibmqx2/heuristic", routingFixture(), QX2(), Options{Method: MethodHeuristic, Seed: 3}},
		{"routing/tokyo/astar", routingFixture(), Tokyo(), Options{Method: MethodAStar}},
		{"routing/heavyhex27/sabre", routingFixture(), HeavyHex27(), Options{Method: MethodSabre}},
		{"x/ibmqx4/astar", xFixture, QX4(), Options{Method: MethodAStar}},
		{"x/tokyo/astar", xFixture, Tokyo(), Options{Method: MethodAStar}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			w, err := mapWitnessed(m, fx.c, fx.a, fx.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(); err != nil {
				t.Fatalf("answer rejected: %v", err)
			}
			ms := mutants(t, w)
			if fx.c.NumQubits() == 5 {
				for _, name := range []string{"SWAP op dropped", "SWAP op added", "SWAP op moved by one",
					"SWAP block on the wrong pair", "two CNOTs exchanged"} {
					if _, ok := ms[name]; !ok {
						t.Fatalf("fixture yields no %q mutant", name)
					}
				}
			}
			for name, x := range ms {
				if err := x.check(); err == nil {
					t.Errorf("%s: accepted", name)
				}
				if strings.HasPrefix(name, "switch at gate") {
					unwrapped++
				}
			}
		})
	}
	if unwrapped == 0 {
		t.Error("no fixture has a 4-H switch to unwrap")
	}
}

// TestMapHeavyHex127Heuristics maps a 3-qubit circuit onto the 127-qubit
// heavy-hex device with every heuristic method. Verification used to
// refuse every device above 64 qubits ("GF(2) check limited to 64
// physical qubits"), so these maps failed unless verification was off.
func TestMapHeavyHex127Heuristics(t *testing.T) {
	m := newTestMapper(t)
	c := NewCircuit(3).AddH(0).AddCNOT(0, 1).AddCNOT(1, 2).AddT(2).AddCNOT(2, 0)
	for _, method := range []Method{MethodHeuristic, MethodAStar, MethodSabre} {
		res, err := m.MapWith(context.Background(), c, HeavyHex127(), Options{Method: method, Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", method, err)
			continue
		}
		// The couplings are bidirectional: a SWAP is three CNOTs.
		if want := c.Len() + 3*res.Swaps; res.Mapped.NumQubits() != 127 || res.Mapped.Len() != want {
			t.Errorf("%s: %d gates on %d qubits, want %d on 127", method, res.Mapped.Len(), res.Mapped.NumQubits(), want)
		}
	}
}

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// angle returns a finite angle in [-8, 8).
func (b *fuzzBytes) angle() float64 { return float64(int8(b.next())) / 16 }

// gate returns a gate on n qubits: single-qubit gates of every kind,
// CNOTs, and MCTs with one control; ok is false for n = 1 and a
// two-qubit kind.
func (b *fuzzBytes) gate(n int) (g Gate, ok bool) {
	q, p := b.next()%n, b.next()%n
	switch k := b.next() % 16; {
	case k < 8:
		kinds := [8]circuit.Kind{circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ,
			circuit.KindS, circuit.KindSdg, circuit.KindT, circuit.KindTdg}
		return Gate{Kind: kinds[k], Qubits: []int{q}}, true
	case k == 8:
		return circuit.Rz(q, b.angle()), true
	case k == 9:
		return circuit.U(q, b.angle(), b.angle(), b.angle()), true
	case n == 1:
		return Gate{}, false
	case p == q:
		p = (q + 1) % n
	}
	if b.next()%4 == 0 {
		return circuit.MCT([]int{q}, p), true
	}
	return circuit.CNOT(q, p), true
}

// FuzzTranslationSound holds the checker to the simulator. From the fuzz
// bytes it builds a circuit of at most 6 qubits on QX2, QX4 or ring6,
// maps it with a heuristic method or the DP engine, and alters the mapped
// circuit, its layouts or its witness a few times. The answer as mapped
// must be accepted, and whatever the checker accepts must simulate as
// equivalent (verify.Equivalent).
func FuzzTranslationSound(f *testing.F) {
	f.Add([]byte{0, 3, 12, 0, 1, 10, 1, 2, 11, 2, 0, 12, 0, 2, 9, 5, 7, 3, 1, 0, 4})
	f.Add([]byte{1, 4, 20, 1, 0, 10, 2, 3, 13, 4, 0, 15, 3, 1, 11, 0, 4, 12, 1, 2, 9, 3, 8, 200, 2, 6, 1, 9})
	f.Add([]byte{2, 5, 30, 3, 0, 10, 5, 1, 12, 4, 2, 11, 0, 5, 14, 1, 3, 13, 2, 4, 10, 5, 0, 11, 3, 2, 10, 7, 1, 8, 3})
	f.Add([]byte{0, 4, 16, 2, 0, 12, 0, 1, 11, 1, 3, 12, 3, 0, 13, 2, 1, 10, 3, 9, 64, 32, 1, 2, 8, 0, 11, 5})
	m := newTestMapper(f)
	archs := []*Architecture{QX2(), QX4(), arch.Ring(6)}
	methods := []Method{MethodHeuristic, MethodAStar, MethodSabre, MethodExact}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		a := archs[b.next()%len(archs)]
		n := 1 + b.next()%a.NumQubits()
		c := NewCircuit(n)
		for count := b.next() % 24; c.Len() < count; {
			if g, ok := b.gate(n); ok {
				c.MustAppend(g)
			}
		}
		opts := Options{Method: methods[b.next()%len(methods)], Engine: EngineDP, Seed: int64(b.next())}
		w, err := mapWitnessed(m, c, a, opts)
		if err != nil {
			t.Skipf("%s on %s: %v", opts.Method, a.Name(), err)
		}
		if err := w.check(); err != nil {
			t.Fatalf("answer of %s on %s rejected: %v", opts.Method, a.Name(), err)
		}
		for range 1 + b.next()%3 {
			w = mutate(&b, w)
		}
		if w.check() != nil {
			return
		}
		if err := verify.Equivalent(c, w.mapped, a.NumQubits(), w.initial, w.final); err != nil {
			t.Fatalf("accepted, but not equivalent: %v\nmapped: %v\nops: %v\nlayouts %v → %v", err, w.mapped, w.ops, w.initial, w.final)
		}
	})
}

// mutate alters one thing of w, chosen by the fuzz bytes: a mapped gate
// dropped, duplicated, replaced, moved to other qubits, exchanged with the
// next or given one ulp more angle; a layout entry; or a witness op
// dropped, added, moved or re-paired.
func mutate(b *fuzzBytes, w witnessed) witnessed {
	m := w.a.NumQubits()
	gates := slices.Clone(w.mapped.Gates())
	ops := slices.Clone(w.ops)
	k := b.next()
	switch b.next() % 12 {
	case 0, 1, 2, 3, 4, 5:
		if len(gates) == 0 {
			return w
		}
		k %= len(gates)
		switch b.next() % 6 {
		case 0:
			gates = slices.Delete(gates, k, k+1)
		case 1:
			gates = slices.Insert(gates, k, gates[k])
		case 2:
			if g, ok := b.gate(m); ok {
				gates[k] = g
			}
		case 3:
			g := gates[k].Copy()
			g.Qubits[b.next()%len(g.Qubits)] = b.next() % m
			gates[k] = g
		case 4:
			if k+1 < len(gates) {
				gates[k], gates[k+1] = gates[k+1], gates[k]
			}
		case 5:
			g := gates[k]
			g.Theta = math.Nextafter(g.Theta, math.Inf(1))
			gates[k] = g
		}
		x, ok := w.withGates(gates)
		if !ok {
			return w
		}
		return x
	case 6:
		w.initial = w.initial.Copy()
		w.initial[k%len(w.initial)] = b.next() % m
	case 7:
		w.final = w.final.Copy()
		w.final[k%len(w.final)] = b.next() % m
	case 8:
		if len(ops) > 0 {
			w.ops = slices.Delete(ops, k%len(ops), k%len(ops)+1)
		}
	case 9:
		op := circuit.MappedOp{Swap: true, A: b.next() % m, B: b.next() % m}
		w.ops = slices.Insert(ops, k%(len(ops)+1), op)
	case 10:
		if len(ops) > 1 {
			k %= len(ops) - 1
			ops[k], ops[k+1] = ops[k+1], ops[k]
			w.ops = ops
		}
	case 11:
		if len(ops) > 0 {
			k %= len(ops)
			ops[k].A, ops[k].B = b.next()%m, b.next()%m
			w.ops = ops
		}
	}
	return w
}
