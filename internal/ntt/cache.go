package ntt

import (
	"sync"

	"unizk/internal/field"
)

// Bounded table cache for twiddle and domain tables. A proving server
// runs many jobs over a handful of transform sizes, so the tables that
// dominate NTT setup — forward/inverse root-of-unity half-tables, coset
// power tables, and the bit-reversed LDE domain points — are computed
// once and shared across jobs. Unlike the unbounded per-process sync.Map
// it replaces, the cache holds at most a configured number of field
// elements and evicts least-recently-used tables beyond it, so a server
// fed adversarially many distinct sizes cannot grow without bound.
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

// tableEntry is one cached table with its LRU stamp.
type tableEntry struct {
	table []field.Element
	tick  uint64
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
	entries map[tableKey]*tableEntry
	//unizklint:guardedby mu
	elems int
	//unizklint:guardedby mu
	tick uint64
	//unizklint:guardedby mu
	limit int
	//unizklint:guardedby mu
	hits uint64
	//unizklint:guardedby mu
	misses uint64
	//unizklint:guardedby mu
	evictions uint64
}

var cache = &tableCache{
	entries: map[tableKey]*tableEntry{},
	limit:   DefaultCacheElems,
}

// lookup returns the cached table for key, bumping its recency.
func (c *tableCache) lookup(key tableKey) ([]field.Element, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.tick++
	e.tick = c.tick
	c.hits++
	return e.table, true
}

// publish stores a freshly built table, returning the canonical slice:
// on a racing double-build the first stored table wins so every caller
// shares one backing array. Tables larger than the whole limit are
// returned uncached.
func (c *tableCache) publish(key tableKey, table []field.Element) []field.Element {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.tick++
		e.tick = c.tick
		return e.table
	}
	if len(table) > c.limit {
		return table
	}
	c.tick++
	e := &tableEntry{table: table, tick: c.tick}
	c.entries[key] = e
	c.elems += len(table)
	c.evictLocked(e)
	return table
}

// evictLocked drops least-recently-used entries, never keep (the entry
// that triggered the sweep, or nil), until the element total fits the
// limit.
//
//unizklint:holds c.mu
func (c *tableCache) evictLocked(keep *tableEntry) {
	for c.elems > c.limit {
		var victim tableKey
		var oldest *tableEntry
		for k, e := range c.entries {
			if e != keep && (oldest == nil || e.tick < oldest.tick) {
				victim, oldest = k, e
			}
		}
		if oldest == nil {
			return
		}
		c.elems -= len(oldest.table)
		delete(c.entries, victim)
		c.evictions++
	}
}

// setLimit installs a new element bound and evicts down to it. It
// returns the previous limit so tests can restore it.
func (c *tableCache) setLimit(elems int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.limit
	c.limit = elems
	c.evictLocked(nil)
	return prev
}

// snapshot returns current stats.
func (c *tableCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Elems:     c.elems,
	}
}

// getOrBuild resolves key from the cache, building and publishing on a
// miss. build runs outside the lock: concurrent misses may build twice,
// but publish keeps exactly one.
func (c *tableCache) getOrBuild(key tableKey, build func() []field.Element) []field.Element {
	if t, ok := c.lookup(key); ok {
		return t
	}
	return c.publish(key, build())
}

// SetCacheLimit bounds the table cache at the given number of field
// elements, evicting immediately if the current contents exceed it, and
// returns the previous limit. Tests shrink it to exercise eviction.
func SetCacheLimit(elems int) int { return cache.setLimit(elems) }

// GetCacheStats returns a snapshot of the shared table cache counters.
func GetCacheStats() CacheStats { return cache.snapshot() }

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
