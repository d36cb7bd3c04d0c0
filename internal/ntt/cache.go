package ntt

import (
	"sync"

	"unizk/internal/field"
	"unizk/internal/store"
)

// Bounded table cache for twiddle and domain tables. A proving server
// runs many jobs over a handful of transform sizes, so the tables that
// dominate NTT setup — forward/inverse root-of-unity half-tables, coset
// power tables, and the bit-reversed LDE domain points — are computed
// once and shared across jobs. The cache holds at most a configured
// number of field elements, so a server fed adversarially many distinct
// sizes cannot grow without bound: each table weighs its length, and
// inserts are forced at rebuild cost 0, which internal/store's policy
// turns into least-recently-used eviction.
//
// Published tables are immutable: once a slice leaves the cache it is
// only ever read, by any number of concurrent jobs. Eviction merely
// drops the cache's reference — in-flight readers keep theirs, and a
// later request recomputes. On a racing miss the first store wins and
// every caller observes the same slice.

// tableKind discriminates the table families sharing the cache.
type tableKind uint8

const (
	kindLayers    tableKind = iota // every butterfly layer's roots, forward
	kindInvLayers                  // every butterfly layer's roots, inverse
	kindPowers                     // shift^0..shift^(n-1), coset scaling
	kindDomain                     // g·w^BitReverse(j), LDE domain points
)

// tableKey identifies one cached table. shift is zero except for
// kindPowers, where distinct coset shifts are distinct tables.
type tableKey struct {
	kind  tableKind
	logN  int
	shift field.Element
}

// CacheStats is a point-in-time snapshot of the table cache.
type CacheStats struct {
	Hits      uint64 // lookups served from the cache
	Misses    uint64 // lookups that had to build a table
	Evictions uint64 // tables dropped to respect the element limit
	Entries   int    // tables currently cached
	Elems     int    // field elements currently cached
}

// DefaultCacheElems bounds the cache at 2^23 field elements (64 MiB):
// enough for the layer tables of both directions (2^21 elements each),
// the coset power table and the domain table of a 2^21-point LDE
// domain, small next to the per-proof working set it accelerates.
const DefaultCacheElems = 1 << 23

// tableCache is the process-wide bounded cache.
type tableCache struct {
	mu sync.Mutex
	//unizklint:guardedby mu
	tables *store.Store[tableKey, []field.Element]
}

var cache = &tableCache{tables: store.New[tableKey, []field.Element](DefaultCacheElems)}

// getOrBuild resolves key from the cache, building and publishing on a
// miss. build runs outside the lock: concurrent misses may build twice,
// but the first stored table wins, so every caller shares one backing
// array. A table larger than the whole limit is returned uncached.
func (c *tableCache) getOrBuild(key tableKey, build func() []field.Element) []field.Element {
	c.mu.Lock()
	t, ok := c.tables.Get(key)
	c.mu.Unlock()
	if ok {
		return t
	}
	t = build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.tables.Peek(key); ok {
		return prior
	}
	c.tables.Add(key, t, int64(len(t)), 0, true)
	return t
}

// SetCacheLimit bounds the table cache at the given number of field
// elements, evicting immediately if the current contents exceed it, and
// returns the previous limit. Tests shrink it to exercise eviction.
func SetCacheLimit(elems int) int {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return int(cache.tables.SetBudget(int64(elems)))
}

// GetCacheStats returns a snapshot of the shared table cache counters.
func GetCacheStats() CacheStats {
	cache.mu.Lock()
	st := cache.tables.Stats()
	cache.mu.Unlock()
	return CacheStats{
		Hits:      uint64(st.Hits),
		Misses:    uint64(st.Misses),
		Evictions: uint64(st.Evicted),
		Entries:   st.Entries,
		Elems:     int(st.Weight),
	}
}

// Preload builds and caches the forward and inverse layer tables that a
// size-2^logN transform reads, so a later transform of that size does
// not pay table construction.
func Preload(logN int) {
	layerTable(logN, false)
	layerTable(logN, true)
}

// layerTable returns the cached roots of every butterfly layer of a
// size-2^logN transform in one flat table: the roots w^0..w^(2^(l-1)-1)
// of span 2^l, w its primitive root (inverted for the inverse
// transform), sit at offset 2^(l-1)-1. A transform fetches it once, so
// its layers and cache blocks take no further lock.
func layerTable(logN int, inverse bool) []field.Element {
	kind := kindLayers
	if inverse {
		kind = kindInvLayers
	}
	return cache.getOrBuild(tableKey{kind: kind, logN: logN}, func() []field.Element {
		flat := make([]field.Element, 1<<logN-1)
		for l := 1; l <= logN; l++ {
			w := field.PrimitiveRootOfUnity(l)
			if inverse {
				w = field.Inverse(w)
			}
			copy(flat[1<<(l-1)-1:], buildRootTable(w, l))
		}
		return flat
	})
}

// spanRoots returns the roots of span 2·half from a layer table.
func spanRoots(layers []field.Element, half int) []field.Element {
	return layers[half-1 : 2*half-1]
}

func buildRootTable(w field.Element, logN int) []field.Element {
	n := 1 << logN
	table := make([]field.Element, n/2)
	if n/2 > 0 {
		table[0] = field.One
		for i := 1; i < n/2; i++ {
			table[i] = field.Mul(table[i-1], w)
		}
	}
	return table
}

// powerTable returns shift^0..shift^(n-1) for n = 2^logN — the coset
// scaling table of a Transform whose Spec has a Shift. The serial power
// walk makes the table bit-identical to on-the-fly accumulation.
func powerTable(shift field.Element, logN int) []field.Element {
	return cache.getOrBuild(tableKey{kind: kindPowers, logN: logN, shift: shift}, func() []field.Element {
		n := 1 << logN
		table := make([]field.Element, n)
		acc := field.One
		for i := 0; i < n; i++ {
			table[i] = acc
			acc = field.Mul(acc, shift)
		}
		return table
	})
}

// CosetDomainBR returns the cached LDE domain points x_j = g·w^rev(j)
// for the size-2^logM coset domain, indexed in the committed
// (bit-reversed) order. FRI's combine phase reads this vector once per
// proof; sharing it across jobs removes an O(m) rebuild per prove.
//
// The returned slice is shared and must not be modified.
func CosetDomainBR(logM int) []field.Element {
	return cache.getOrBuild(tableKey{kind: kindDomain, logN: logM}, func() []field.Element {
		m := 1 << logM
		w := field.PrimitiveRootOfUnity(logM)
		pow := make([]field.Element, m)
		acc := field.MultiplicativeGenerator
		for i := 0; i < m; i++ {
			pow[i] = acc
			acc = field.Mul(acc, w)
		}
		out := make([]field.Element, m)
		for j := 0; j < m; j++ {
			out[j] = pow[BitReverse(j, logM)]
		}
		return out
	})
}
