package store

import (
	"math/rand"
	"testing"
	"time"
)

// model is a brute-force reference for Store: the same counts and
// worth, but victims found by repeated linear scans over a plain map.
type model struct {
	budget  int64
	entries map[int]*entry[int]
	counts  map[int]int
	counted int
	seq     uint64
	stats   Stats
}

func newModel(budget int64) *model {
	return &model{budget: budget, entries: map[int]*entry[int]{}, counts: map[int]int{}}
}

func (m *model) weight() int64 {
	var w int64
	for _, e := range m.entries {
		w += e.weight
	}
	return w
}

func (m *model) worth(k int, e *entry[int]) float64 {
	return float64(m.counts[k]) * float64(e.cost) / float64(e.weight)
}

func (m *model) get(k int) (int, bool) {
	m.counts[k]++
	m.counted++
	capacity := m.budget
	if len(m.entries) > 0 {
		capacity = m.budget / (m.weight() / int64(len(m.entries)))
	}
	if m.counted >= Window*int(max(1, capacity)) {
		m.counted = 0
		for k := range m.counts {
			if m.counts[k] /= 2; m.counts[k] == 0 {
				delete(m.counts, k)
			}
		}
	}
	e, ok := m.entries[k]
	if !ok {
		m.stats.Misses++
		return 0, false
	}
	m.stats.Hits++
	m.seq++
	e.used = m.seq
	return e.value, true
}

// cheapest is the resident key least worth keeping, ties to the least
// recently used, skipping those in taken.
func (m *model) cheapest(taken map[int]bool) (int, bool) {
	best, found := 0, false
	for k, e := range m.entries {
		if taken[k] {
			continue
		}
		if b := m.entries[best]; !found || m.worth(k, e) < m.worth(best, b) ||
			(m.worth(k, e) == m.worth(best, b) && e.used < b.used) {
			best, found = k, true
		}
	}
	return best, found
}

// add mirrors Store.Add and returns the keys it evicted, in order, and
// the worth of the newcomer and of the dearest entry it would have
// displaced (0 when it needed none).
func (m *model) add(k, v int, weight int64, cost time.Duration, force bool) (evicted []int, worth, displaced float64) {
	weight = max(weight, 1)
	old, refresh := m.entries[k]
	if refresh {
		delete(m.entries, k)
		cost, force = max(cost, old.cost), true
	}
	e := &entry[int]{value: v, weight: weight, cost: cost}
	worth = m.worth(k, e)
	taken := map[int]bool{}
	for need := m.weight() + weight - m.budget; need > 0; {
		c, ok := m.cheapest(taken)
		if !ok {
			break
		}
		taken[c] = true
		evicted = append(evicted, c)
		displaced = max(displaced, m.worth(c, m.entries[c]))
		need -= m.entries[c].weight
	}
	if weight > m.budget || (!force && len(evicted) > 0 && displaced >= worth) {
		m.stats.Declined++
		return nil, worth, displaced
	}
	for _, c := range evicted {
		delete(m.entries, c)
	}
	m.stats.Evicted += int64(len(evicted))
	if !refresh {
		m.stats.Inserted++
	}
	m.seq++
	e.used = m.seq
	m.entries[k] = e
	return evicted, worth, displaced
}

// check runs ops through a Store and the model side by side. Each op is
// four bytes: what to do, a key, a weight and a cost.
func check(t *testing.T, budget int64, ops []byte) {
	t.Helper()
	s, m := New[int, int](budget), newModel(budget)
	for i := 0; i+4 <= len(ops); i += 4 {
		op, k, w, c := ops[i]%8, int(ops[i+1]%12), int64(ops[i+2]%12), time.Duration(ops[i+3]%4)
		switch op {
		case 0, 1, 2:
			got, ok := s.Get(k)
			want, wantOK := m.get(k)
			if got != want || ok != wantOK {
				t.Fatalf("op %d: Get(%d) = %d, %v, want %d, %v", i/4, k, got, ok, want, wantOK)
			}
		case 3, 4, 5:
			force := op == 5
			allZero := c == 0
			for _, e := range m.entries {
				allZero = allZero && e.cost == 0
			}
			before := map[int]uint64{}
			for k, e := range m.entries {
				before[k] = e.used
			}
			s.Add(k, i, w, c, force)
			evicted, worth, displaced := m.add(k, i, w, c, force)
			_, refresh := before[k]
			if _, kept := s.Peek(k); !kept && max(w, 1) <= budget && !force && !refresh && worth > displaced {
				t.Fatalf("op %d: declined key %d worth %g, more than the %g it would displace", i/4, k, worth, displaced)
			}
			if force && allZero {
				// At cost 0 a forced insert evicts least recently used first.
				for _, v := range evicted {
					for r, used := range before {
						if r != k && used < before[v] && m.entries[r] != nil {
							t.Fatalf("op %d: evicted key %d but kept the less recent %d", i/4, v, r)
						}
					}
				}
			}
		case 6:
			s.Delete(k)
			delete(m.entries, k)
		case 7:
			budget = w
			if prev := s.SetBudget(budget); prev != m.budget {
				t.Fatalf("op %d: SetBudget returned %d, want %d", i/4, prev, m.budget)
			}
			m.budget = budget
			for m.weight() > budget {
				c, _ := m.cheapest(nil)
				delete(m.entries, c)
				m.stats.Evicted++
			}
		}

		want := m.stats
		want.Entries, want.Weight = len(m.entries), m.weight()
		if st := s.Stats(); st != want {
			t.Fatalf("op %d: stats %+v, want %+v", i/4, st, want)
		}
		if want.Weight > max(budget, 0) {
			t.Fatalf("op %d: weight %d over the budget %d", i/4, want.Weight, budget)
		}
		for k, e := range s.entries {
			if e.weight > budget {
				t.Fatalf("op %d: key %d weighs %d, more than the budget %d", i/4, k, e.weight, budget)
			}
			if me := m.entries[k]; me == nil || me.value != e.value {
				t.Fatalf("op %d: key %d resident in the store, not in the model", i/4, k)
			}
		}
		if len(s.counts) != len(m.counts) || s.counted != m.counted {
			t.Fatalf("op %d: %d counted keys (%d requests), want %d (%d)", i/4, len(s.counts), s.counted, len(m.counts), m.counted)
		}
		for k, n := range m.counts {
			if s.counts[k] != n {
				t.Fatalf("op %d: key %d counted %d times, want %d", i/4, k, s.counts[k], n)
			}
		}
		if n := s.Counted(); n > 2*Window*int(max(budget, 1)) {
			t.Fatalf("op %d: %d counted keys, over 2 × Window × budget", i/4, n)
		}
	}
}

// TestStoreModel runs random op sequences against the model.
func TestStoreModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 200; seed++ {
		ops := make([]byte, 4*(50+rng.Intn(400)))
		rng.Read(ops)
		check(t, int64(rng.Intn(20)), ops)
	}
}

// TestStoreCountsBounded streams one-off keys, each requested once,
// through a small store: the count map stays within 2 × Window × budget.
func TestStoreCountsBounded(t *testing.T) {
	const budget = 4
	s := New[int, int](budget)
	for k := 0; k < 100*Window*budget; k++ {
		s.Get(k)
		s.Add(k, k, 1, time.Duration(k%3), false)
		if n := s.Counted(); n > 2*Window*budget {
			t.Fatalf("after %d keys the count map holds %d, want <= %d", k+1, n, 2*Window*budget)
		}
	}
}

func FuzzStore(f *testing.F) {
	f.Add(byte(6), []byte{3, 1, 2, 1, 0, 1, 0, 0, 4, 2, 3, 2, 5, 3, 5, 0, 7, 0, 3, 0})
	f.Add(byte(3), []byte{5, 1, 1, 0, 5, 2, 1, 0, 0, 1, 0, 0, 5, 3, 2, 0, 5, 4, 9, 0})
	f.Fuzz(func(t *testing.T, budget byte, ops []byte) {
		check(t, int64(budget%24), ops)
	})
}
