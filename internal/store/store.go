// Package store is the bounded store behind the serving stack's caches:
// the proof cache, the circuit registry and the NTT table cache keep
// their values in a Store, and the Store alone decides which stay.
//
// Each entry has a weight, and the weights together stay within a
// budget. Every Get counts a request for its key, resident or not, and
// an entry is worth its count × its rebuild cost ÷ its weight, as in
// GreedyDual-Size-Frequency (Cherkasova, HP Labs 1998); ties go to the
// least recently used entry. A newcomer that needs room evicts entries
// only if each is worth less than the newcomer, least worth first, and
// is otherwise declined (TinyLFU admission: Einziger, Friedman, Manes,
// ACM TOS 2017) unless the insert is forced. An entry heavier than the
// whole budget is never kept. At cost 0 every entry is worth nothing,
// so forced inserts evict in least-recently-used order.
//
// A Store is not safe for concurrent use; its owner guards it.
package store

import (
	"cmp"
	"slices"
	"time"
)

// Window is TinyLFU's reset interval: after Window × capacity counted
// requests, capacity being how many entries of the residents' mean
// weight fit the budget, every count halves and zero counts are
// dropped. Old popularity fades, and the count map never holds more
// than 2 × Window × max(budget, 1) keys.
const Window = 10

type entry[V any] struct {
	value  V
	weight int64
	cost   time.Duration
	used   uint64 // access sequence number: lower = less recent
}

// Stats counts a store's decisions since New, and its current size.
type Stats struct {
	Hits, Misses int64 // Gets that found and that missed a resident key
	Inserted     int64 // Adds that kept a key not resident before
	Evicted      int64
	Declined     int64 // Adds not kept: worth too little, or too heavy
	Entries      int   // resident keys
	Weight       int64 // the entries' total weight, at most the budget
}

// Store is a bounded map from K to V; see the package doc.
type Store[K comparable, V any] struct {
	budget  int64
	entries map[K]*entry[V]
	counts  map[K]int // recent requests per key
	counted int       // requests since the counts last halved
	seq     uint64    // last access sequence number handed out
	stats   Stats
}

// New returns an empty store whose weights may total budget.
func New[K comparable, V any](budget int64) *Store[K, V] {
	return &Store[K, V]{budget: budget, entries: map[K]*entry[V]{}, counts: map[K]int{}}
}

// Get counts one request for key and returns its value if resident,
// marking it most recently used.
func (s *Store[K, V]) Get(key K) (value V, ok bool) {
	s.counts[key]++
	if s.counted++; s.counted >= Window*s.capacity() {
		s.counted = 0
		for k, n := range s.counts {
			if n /= 2; n == 0 {
				delete(s.counts, k)
			} else {
				s.counts[k] = n
			}
		}
	}
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return value, false
	}
	s.stats.Hits++
	s.seq++
	e.used = s.seq
	return e.value, true
}

// Peek returns key's value if resident, counting and marking nothing.
func (s *Store[K, V]) Peek(key K) (value V, ok bool) {
	if e, ok := s.entries[key]; ok {
		return e.value, true
	}
	return value, false
}

// Add offers value for key, at weight (below 1 counts as 1) and the
// cost of building it again. Re-adding a resident key replaces its
// entry, keeps the larger cost, and is forced.
func (s *Store[K, V]) Add(key K, value V, weight int64, cost time.Duration, force bool) {
	weight = max(weight, 1)
	old, refresh := s.entries[key]
	if refresh {
		s.Delete(key)
		cost, force = max(cost, old.cost), true
	}
	victims, ok := s.victims(weight, s.worth(key, weight, cost), force)
	if !ok || weight > s.budget {
		s.stats.Declined++
		return
	}
	s.evict(victims)
	if !refresh {
		s.stats.Inserted++
	}
	s.seq++
	s.entries[key] = &entry[V]{value: value, weight: weight, cost: cost, used: s.seq}
	s.stats.Weight += weight
}

// Delete drops key's entry, if resident.
func (s *Store[K, V]) Delete(key K) {
	if e, ok := s.entries[key]; ok {
		s.stats.Weight -= e.weight
		delete(s.entries, key)
	}
}

// SetBudget installs a new budget, evicting the least worth entries
// until the rest fit, and returns the previous budget.
func (s *Store[K, V]) SetBudget(budget int64) (prev int64) {
	prev, s.budget = s.budget, budget
	victims, _ := s.victims(0, 0, true)
	s.evict(victims)
	return prev
}

// Stats returns the store's counters and size.
func (s *Store[K, V]) Stats() Stats {
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// Counted is the number of keys with a recent request count.
func (s *Store[K, V]) Counted() int { return len(s.counts) }

func (s *Store[K, V]) evict(keys []K) {
	for _, k := range keys {
		s.Delete(k)
	}
	s.stats.Evicted += int64(len(keys))
}

// capacity is how many entries of the residents' mean weight fit the
// budget: the budget itself when every weight is 1.
func (s *Store[K, V]) capacity() int {
	mean := int64(1)
	if n := int64(len(s.entries)); n > 0 {
		mean = s.stats.Weight / n
	}
	return max(1, int(s.budget/mean))
}

func (s *Store[K, V]) worth(key K, weight int64, cost time.Duration) float64 {
	return float64(s.counts[key]) * float64(cost) / float64(weight)
}

// victims lists the least worth entries, ties least recently used first,
// whose eviction makes room for weight more. Unless force, each must be
// worth less than worth, or nothing is evicted and ok is false.
func (s *Store[K, V]) victims(weight int64, worth float64, force bool) (keys []K, ok bool) {
	need := s.stats.Weight + weight - s.budget
	if need <= 0 {
		return nil, true
	}
	type victim struct {
		key   K
		worth float64
		e     *entry[V]
	}
	all := make([]victim, 0, len(s.entries))
	for k, e := range s.entries {
		all = append(all, victim{k, s.worth(k, e.weight, e.cost), e})
	}
	slices.SortFunc(all, func(a, b victim) int {
		return cmp.Or(cmp.Compare(a.worth, b.worth), cmp.Compare(a.e.used, b.e.used))
	})
	for _, v := range all {
		if need <= 0 {
			break
		}
		if !force && v.worth >= worth {
			return nil, false
		}
		keys = append(keys, v.key)
		need -= v.e.weight
	}
	return keys, true
}
