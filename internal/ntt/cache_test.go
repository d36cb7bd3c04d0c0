package ntt

import (
	"sync"
	"testing"

	"unizk/internal/field"
)

// flushCache empties the shared table cache (limit 0 evicts everything)
// and restores the previous limit, returning it for reference.
func flushCache(t *testing.T) int {
	t.Helper()
	prev := SetCacheLimit(0)
	SetCacheLimit(prev)
	t.Cleanup(func() { SetCacheLimit(prev) })
	return prev
}

// TestCacheConcurrentAccess hammers every table family from many
// goroutines; the race detector verifies the locking and each reader
// verifies it got a correct, fully built table (a torn or partially
// published slice would fail the spot checks).
func TestCacheConcurrentAccess(t *testing.T) {
	flushCache(t)
	wantLayers := append([]field.Element(nil), layerTable(10, false)...)
	wantPow := append([]field.Element(nil), powerTable(field.MultiplicativeGenerator, 8)...)
	wantDom := append([]field.Element(nil), CosetDomainBR(9)...)

	const workers = 8
	const rounds = 100
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Vary sizes so goroutines mix hits and misses.
				logN := 6 + (g+i)%6
				dt := CosetDomainBR(logN)
				lt, it := layerTable(logN, false), layerTable(logN, true)
				if len(dt) != 1<<logN || len(lt) != 1<<logN-1 || len(it) != len(lt) {
					errs <- "table length"
					return
				}
				top := spanRoots(lt, 1<<(logN-1))
				if dt[0] != field.MultiplicativeGenerator || top[0] != field.One || field.Mul(lt[2], it[2]) != field.One {
					errs <- "table contents"
					return
				}
				got := layerTable(10, false)
				for j := 0; j < len(wantLayers); j += 97 {
					if got[j] != wantLayers[j] {
						errs <- "layerTable(10) diverged"
						return
					}
				}
				pt := powerTable(field.MultiplicativeGenerator, 8)
				for j := 0; j < len(wantPow); j += 31 {
					if pt[j] != wantPow[j] {
						errs <- "powerTable diverged"
						return
					}
				}
				dom := CosetDomainBR(9)
				for j := 0; j < len(wantDom); j += 53 {
					if dom[j] != wantDom[j] {
						errs <- "CosetDomainBR diverged"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	s := GetCacheStats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("expected both hits and misses under contention, got %+v", s)
	}
}

// TestCacheEviction drives the bounded cache over its limit and checks
// the LRU policy: least-recently-used entries go first, the entry that
// triggered the sweep survives, and the element total respects the
// limit.
func TestCacheEviction(t *testing.T) {
	flushCache(t)
	SetCacheLimit(0) // flush again so the test starts from an empty cache
	SetCacheLimit(256)

	shiftA, shiftB, shiftC := field.New(2), field.New(3), field.New(5)
	_ = powerTable(shiftA, 7) // 128 elems
	_ = powerTable(shiftB, 7) // 128 elems — cache now full at 256
	s := GetCacheStats()
	if s.Entries != 2 || s.Elems != 256 {
		t.Fatalf("setup: %+v", s)
	}
	ev := s.Evictions // counters are process-cumulative: compare deltas

	_ = powerTable(shiftA, 7) // touch A so B becomes LRU
	_ = powerTable(shiftC, 7) // insert C: must evict exactly B

	s = GetCacheStats()
	if s.Elems > 256 {
		t.Fatalf("cache over limit: %+v", s)
	}
	if s.Evictions != ev+1 {
		t.Fatalf("want exactly 1 eviction (was %d), got %+v", ev, s)
	}

	h := GetCacheStats().Hits
	_ = powerTable(shiftA, 7) // A touched recently: still cached
	_ = powerTable(shiftC, 7) // C just inserted: must have survived its own sweep
	if got := GetCacheStats().Hits; got != h+2 {
		t.Fatalf("A and C should both hit (hits %d -> %d)", h, got)
	}
	m := GetCacheStats().Misses
	_ = powerTable(shiftB, 7) // B was the LRU victim: rebuilt on miss
	if got := GetCacheStats().Misses; got != m+1 {
		t.Fatalf("B should miss after eviction (misses %d -> %d)", m, got)
	}

	// A table larger than the entire limit is served but never cached.
	e := GetCacheStats().Entries
	big := CosetDomainBR(9) // 512 elems > 256 limit
	if len(big) != 512 {
		t.Fatalf("oversized table length %d", len(big))
	}
	if got := GetCacheStats().Entries; got != e {
		t.Fatalf("oversized table must not be cached (entries %d -> %d)", e, got)
	}

	// Rebuilt-after-eviction tables are identical to the originals.
	want := powerTable(shiftB, 7)
	acc := field.One
	for i, v := range want {
		if v != acc {
			t.Fatalf("rebuilt power table wrong at %d", i)
		}
		acc = field.Mul(acc, shiftB)
	}
}

// TestCacheLimitShrink checks that lowering the limit evicts immediately
// and that SetCacheLimit reports the previous bound.
func TestCacheLimitShrink(t *testing.T) {
	flushCache(t)
	SetCacheLimit(0)
	SetCacheLimit(1 << 12)
	_ = CosetDomainBR(7)
	_ = CosetDomainBR(8)
	_ = CosetDomainBR(9)
	if s := GetCacheStats(); s.Entries != 3 {
		t.Fatalf("setup: %+v", s)
	}
	if prev := SetCacheLimit(300); prev != 1<<12 {
		t.Fatalf("SetCacheLimit returned %d, want %d", prev, 1<<12)
	}
	s := GetCacheStats()
	if s.Elems > 300 {
		t.Fatalf("shrink did not evict: %+v", s)
	}
	// The most recently used table (logM=9, 512 elems) exceeds the new
	// limit on its own, so everything must be gone except entries that
	// fit; verify the survivor set respects the bound and lookups still
	// return correct tables.
	dt := CosetDomainBR(7)
	if dt[0] != field.MultiplicativeGenerator || len(dt) != 128 {
		t.Fatal("CosetDomainBR(7) wrong after shrink")
	}
}

// TestPreload warms both directions so a server's first proof skips
// table construction: a forward and an inverse transform of the
// preloaded size miss no table.
func TestPreload(t *testing.T) {
	flushCache(t)
	SetCacheLimit(0)
	SetCacheLimit(DefaultCacheElems)
	Preload(11)
	m := GetCacheStats().Misses
	data := make([]field.Element, 1<<11)
	transform(t, data, Spec{})
	transform(t, data, Spec{Inverse: true})
	if got := GetCacheStats().Misses; got != m {
		t.Fatalf("Preload did not warm tables (misses %d -> %d)", m, got)
	}
}
