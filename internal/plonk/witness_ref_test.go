package plonk

import (
	"fmt"
	"testing"

	"unizk/internal/field"
	"unizk/internal/fri"
)

// refUnionFind is the builder half of the map-backed witness the dense
// one replaced: a union-find over targets, keyed by the targets
// themselves.
type refUnionFind map[Target]Target

func (p refUnionFind) find(t Target) Target {
	parent, ok := p[t]
	if !ok {
		return t
	}
	root := p.find(parent)
	p[t] = root
	return root
}

func (p refUnionFind) connect(x, y Target) {
	if rx, ry := p.find(x), p.find(y); rx != ry {
		p[rx] = ry
	}
}

// refWitness is the map-backed witness, kept as the oracle FuzzWitness
// checks the dense one against: the union-find frozen over the gate
// slots at build, values stored per representative, and any other target
// in the circuit's rows its own class. A target outside those rows is
// rejected, as the dense witness rejects it.
type refWitness struct {
	rows   int
	roots  map[Target]Target
	values map[Target]field.Element
	err    error
}

func newRefWitness(p refUnionFind, gates int, c *Circuit) *refWitness {
	w := &refWitness{rows: c.N * c.Reps, roots: map[Target]Target{}, values: map[Target]field.Element{}}
	for g := 0; g < gates; g++ {
		for col := 0; col < numWires; col++ {
			t := Target{Row: g, Col: col}
			w.roots[t] = p.find(t)
		}
	}
	return w
}

func (w *refWitness) find(t Target) Target {
	if root, ok := w.roots[t]; ok {
		return root
	}
	return t
}

func (w *refWitness) inCircuit(t Target) bool {
	return t.Col >= 0 && t.Col < numWires && t.Row >= 0 && t.Row < w.rows
}

func (w *refWitness) Set(t Target, v field.Element) {
	if !w.inCircuit(t) {
		if w.err == nil {
			w.err = fmt.Errorf("plonk: witness target %v outside the circuit's %d rows", t, w.rows)
		}
		return
	}
	root := w.find(t)
	if old, ok := w.values[root]; ok {
		if old != v && w.err == nil {
			w.err = fmt.Errorf("plonk: conflicting witness values for %v: %d vs %d",
				t, old, v)
		}
		return
	}
	w.values[root] = v
}

func (w *refWitness) Get(t Target) field.Element {
	if !w.inCircuit(t) {
		return field.Zero
	}
	return w.values[w.find(t)]
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzWitness drives random Connect, Set and Get sequences through the
// dense witness and refWitness: gate slots, padding-row slots, and
// targets outside the circuit, with values drawn from a small set so
// conflicts are common. The two must agree on every read, on every slot
// after the run, and on the first error.
func FuzzWitness(f *testing.F) {
	f.Add([]byte{0, 4, 6, 0, 0, 1, 1, 1, 0, 2, 2, 0, 0, 0, 1, 1, 0, 3, 0, 4})
	f.Add([]byte{2, 20, 30, 5, 1, 7, 2, 9, 0, 3, 1, 4, 2, 8, 2, 6, 3, 0, 1, 2, 3, 3, 3, 2})
	f.Add([]byte{1, 9, 3, 0, 0, 0, 1, 3, 3, 3, 2, 1, 9, 2, 3, 0, 5, 3, 1, 1, 3, 2, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		reps := 1 + next()%3
		gates := 1 + next()%24
		b := NewBuilder()
		for i := 0; i < gates; i++ {
			b.AddVirtual()
		}
		uf := refUnionFind{}
		gateSlot := func() Target { return Target{Row: next() % gates, Col: next() % numWires} }
		for i, n := 0, next()%32; i < n; i++ {
			x, y := gateSlot(), gateSlot()
			b.Connect(x, y)
			uf.connect(x, y)
		}
		c := b.BuildWide(fri.TestConfig(), reps)
		w, ref := c.NewWitness(), newRefWitness(uf, gates, c)
		rows := c.N * c.Reps

		target := func() Target {
			switch next() % 4 {
			case 0:
				// A padding-row slot (the rows past the gates), if any.
				if rows > gates {
					return Target{Row: gates + next()%(rows-gates), Col: next() % numWires}
				}
				return gateSlot()
			case 1:
				// Outside the circuit, on one side or another.
				switch next() % 4 {
				case 0:
					return Target{Row: rows + next()%4, Col: next() % numWires}
				case 1:
					return Target{Row: -1 - next()%4, Col: next() % numWires}
				case 2:
					return Target{Row: next() % rows, Col: numWires + next()%4}
				default:
					return Target{Row: next() % rows, Col: -1}
				}
			default:
				return gateSlot()
			}
		}
		for len(data) > 0 {
			tg := target()
			if next()%2 == 0 {
				v := field.New(uint64(next() % 4))
				w.Set(tg, v)
				ref.Set(tg, v)
			} else if got, want := w.Get(tg), ref.Get(tg); got != want {
				t.Fatalf("Get(%v) = %d, reference %d", tg, got, want)
			}
			if got, want := errText(w.Err()), errText(ref.err); got != want {
				t.Fatalf("Err() = %q, reference %q", got, want)
			}
		}
		for row := 0; row < rows; row++ {
			for col := 0; col < numWires; col++ {
				tg := Target{Row: row, Col: col}
				if got, want := w.Get(tg), ref.Get(tg); got != want {
					t.Fatalf("after the run, Get(%v) = %d, reference %d", tg, got, want)
				}
			}
		}
	})
}

// TestWitnessCloneIndependent checks that a clone and its original share
// no values, set bits or error: writes on either side, including a
// proof's generator writes and a conflict, never show on the other.
func TestWitnessCloneIndependent(t *testing.T) {
	b := NewBuilder()
	x := b.AddPublicInput()
	out := b.AddPublicInput()
	sq := b.Mul(x, x)
	b.Connect(b.Add(sq, x), out)
	free := b.AddVirtual()
	c := b.Build(fri.TestConfig())

	w := c.NewWitness()
	w.Set(x, field.New(5))
	w.Set(out, field.New(30))
	cl := w.Clone()

	if _, err := c.Prove(cl, nil); err != nil {
		t.Fatal(err)
	}
	if got := cl.Get(sq); got != field.New(25) {
		t.Fatalf("clone's generated x² = %d, want 25", got)
	}
	if got := w.Get(sq); got != 0 {
		t.Fatalf("proving the clone wrote %d into the original", got)
	}
	cl.Set(free, field.New(7))
	cl.Set(x, field.New(6))
	if w.Get(free) != 0 || w.Err() != nil {
		t.Fatalf("clone writes leaked into the original: free = %d, err = %v", w.Get(free), w.Err())
	}
	if cl.Err() == nil {
		t.Fatal("conflicting Set on the clone recorded no error")
	}

	w.Set(free, field.New(8))
	if got := cl.Get(free); got != field.New(7) {
		t.Fatalf("original's write changed the clone: free = %d, want 7", got)
	}
	if _, err := c.Prove(w, nil); err != nil {
		t.Fatalf("original no longer proves after its clone did: %v", err)
	}
}

// TestConnectRejectsUnknownTarget checks that Connect refuses a target
// that is not a slot of a row already added.
func TestConnectRejectsUnknownTarget(t *testing.T) {
	for _, bad := range []Target{{Row: 2, Col: 0}, {Row: 0, Col: numWires}, {Row: -1, Col: 0}} {
		b := NewBuilder()
		x := b.AddVirtual()
		b.AddVirtual()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Connect(%v, %v) did not panic", x, bad)
				}
			}()
			b.Connect(x, bad)
		}()
	}
}
