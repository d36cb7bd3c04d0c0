package proofcache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/store"
)

func testKey(i int) Key {
	return KeyFor(&jobs.Request{Kind: jobs.KindStark, Workload: "fib", LogRows: 1 + i})
}

func testRes(i int) *jobs.Result {
	return &jobs.Result{Kind: jobs.KindStark, Proof: []byte{byte(i), byte(i >> 8)}}
}

// complete drives a full leader flight for key and offers res, which
// took cost to prove, to the cache.
func complete(t *testing.T, c *Cache, key Key, id string, res *jobs.Result, cost time.Duration) {
	t.Helper()
	got, leaderID, leader := c.Begin(key, id)
	if got != nil || leaderID != "" || !leader {
		t.Fatalf("Begin(%s) = (%v, %q, %v), want fresh leader", id, got, leaderID, leader)
	}
	if err := c.Complete(key, id, jobs.Encode(res), cost, nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
}

// resident reports whether key holds an entry, without counting a
// request for it.
func resident(c *Cache, key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries.Peek(key)
	return ok
}

func TestKeyForIgnoresIdempotencyKey(t *testing.T) {
	a := &jobs.Request{Kind: jobs.KindStark, Workload: "fib", LogRows: 4, IdempotencyKey: "alice-1"}
	b := &jobs.Request{Kind: jobs.KindStark, Workload: "fib", LogRows: 4, IdempotencyKey: "bob-7"}
	if KeyFor(a) != KeyFor(b) {
		t.Fatal("requests differing only in idempotency key must share a content key")
	}
	c := &jobs.Request{Kind: jobs.KindStark, Workload: "fib", LogRows: 5, IdempotencyKey: "alice-1"}
	if KeyFor(a) == KeyFor(c) {
		t.Fatal("requests with different content must not share a key")
	}
	d := &jobs.Request{Kind: jobs.KindStark, Workload: "fib", LogRows: 4, Payload: []byte{1}}
	if KeyFor(a) == KeyFor(d) {
		t.Fatal("payload must be part of the content key")
	}
}

// TestCacheHitMissAndRecencyTieBreak: among entries of equal worth the
// least recently accessed one is evicted.
func TestCacheHitMissAndRecencyTieBreak(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	k0, k1, k2 := testKey(0), testKey(1), testKey(2)
	complete(t, c, k0, "j0", testRes(0), time.Millisecond)
	complete(t, c, k1, "j1", testRes(1), 2*time.Millisecond)
	// The hit doubles k0's count: 2 × 1 ms ties k1's 1 × 2 ms, and k0 is
	// now the more recently accessed of the two.
	if res, _, _ := c.Begin(k0, "h0"); res == nil || res.Proof[0] != 0 {
		t.Fatalf("Begin(k0) = %v, want hit", res)
	}
	complete(t, c, k2, "j2", testRes(2), 3*time.Millisecond)
	if resident(c, k1) {
		t.Fatal("k1 tied k0 and was accessed less recently: it must be the victim")
	}
	if !resident(c, k0) || !resident(c, k2) {
		t.Fatal("k0 and k2 must stay")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evicted != 1 || st.Declined != 0 || st.Inserted != 3 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 3 misses, 1 evicted, 3 inserted, 2 entries", st)
	}
}

// TestCacheEvictsCheaperAmongEqualCounts: with equal counts the cheaper
// proof to redo goes first, and a newcomer worth no more than the
// cheapest resident is declined.
func TestCacheEvictsCheaperAmongEqualCounts(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	k0, k1, k2, k3 := testKey(0), testKey(1), testKey(2), testKey(3)
	complete(t, c, k0, "j0", testRes(0), 10*time.Millisecond)
	complete(t, c, k1, "j1", testRes(1), 5*time.Millisecond)
	complete(t, c, k2, "j2", testRes(2), 20*time.Millisecond)
	if resident(c, k1) || !resident(c, k0) || !resident(c, k2) {
		t.Fatal("the 5 ms entry must be evicted before the older 10 ms one")
	}
	complete(t, c, k3, "j3", testRes(3), time.Millisecond)
	if resident(c, k3) {
		t.Fatal("a 1 ms newcomer must not displace a 10 ms resident of equal count")
	}
	// A declined result leaves no flight: the next request leads again.
	if _, _, leader := c.Begin(k3, "j3b"); !leader {
		t.Fatal("a declined key must be provable again")
	}
	st := c.Stats()
	if st.Evicted != 1 || st.Declined != 1 || st.Inserted != 3 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 evicted, 1 declined, 3 inserted, 2 entries", st)
	}
}

// TestCacheScanResistance: a burst of one-off cheap contents, three
// times the cache's size, does not flush a popular expensive proof.
func TestCacheScanResistance(t *testing.T) {
	const size = 4
	c := New(Config{MaxEntries: size})
	hot := testKey(0)
	complete(t, c, hot, "hot", testRes(0), 40*time.Millisecond)
	for i := 0; i < 3; i++ {
		if res, _, _ := c.Begin(hot, fmt.Sprintf("hot-hit%d", i)); res == nil {
			t.Fatal("hot key must hit")
		}
	}
	for i := 1; i <= 3*size; i++ {
		complete(t, c, testKey(i), fmt.Sprintf("scan%d", i), testRes(i), time.Millisecond)
	}
	if res, _, _ := c.Begin(hot, "after"); res == nil || res.Proof[0] != 0 {
		t.Fatal("the hot, expensive entry must survive the scan")
	}
	if st := c.Stats(); st.Declined != 3*size-(size-1) || st.Entries != size {
		t.Fatalf("stats = %+v, want %d declined, %d entries", st, 3*size-(size-1), size)
	}
}

// TestCacheCountHistoryBounded: the request counts halve every window,
// so a stream of one-off keys cannot grow the count map without bound.
func TestCacheCountHistoryBounded(t *testing.T) {
	const size = 4
	c := New(Config{MaxEntries: size})
	for i := 0; i < 100*size; i++ {
		k, id := testKey(i), fmt.Sprintf("j%d", i)
		if _, _, leader := c.Begin(k, id); !leader {
			t.Fatalf("one-off key %d must lead", i)
		}
		c.Abort(k, id)
		c.mu.Lock()
		n := c.entries.Counted()
		c.mu.Unlock()
		if n > 2*store.Window*size {
			t.Fatalf("after %d one-off keys the count map holds %d keys, want <= %d", i+1, n, 2*store.Window*size)
		}
	}
}

// Deck-replay fixture: the serving benchmark's hot mix, 24 contents of
// Zipf(1.1) popularity dealt as a 120-card deck in a pinned order, with
// each content's median in-process prove time (ms, 2-core AVX-512 host)
// as its cost, in popularity order.
var deckCostsMS = []float64{
	10.6, 15.9, 9.4, 29.3, 13.6, 4.8, 24.6, 5.9, 26.2, 18.0, 18.6, 5.4,
	9.5, 3.8, 27.9, 25.3, 17.5, 11.8, 15.4, 13.1, 20.5, 17.6, 22.0, 10.6,
}

// zipfDeck lays out round(5·n·p_k) cards (at least one) for each of n
// contents of popularity p_k ∝ 1/(k+1)^s, shuffled by seed.
func zipfDeck(n int, s float64, seed int64) []int {
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
	}
	var cards []int
	for k := 0; k < n; k++ {
		p := 1 / math.Pow(float64(k+1), s) / total
		for i := max(1, int(math.Round(5*float64(n)*p))); i > 0; i-- {
			cards = append(cards, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
	return cards
}

// lruMissCost replays seq through a reference LRU of size entries and
// sums the cost of every miss.
func lruMissCost(seq []int, size int, cost func(int) float64) float64 {
	var order []int // least recently used first
	missed := 0.0
	for _, k := range seq {
		at := -1
		for i, r := range order {
			if r == k {
				at = i
			}
		}
		if at >= 0 {
			order = append(order[:at], order[at+1:]...)
		} else {
			missed += cost(k)
			if len(order) == size {
				order = order[1:]
			}
		}
		order = append(order, k)
	}
	return missed
}

// TestCacheDeckReplayBeatsLRU replays 30 decks of the hot mix through a
// 12-entry cache: the re-prove time it leaves must be at most 0.6 of a
// plain LRU's on the same sequence.
func TestCacheDeckReplayBeatsLRU(t *testing.T) {
	const size, decks = 12, 30
	deck := zipfDeck(len(deckCostsMS), 1.1, 20250925)
	if len(deck) != 120 {
		t.Fatalf("deck has %d cards, want 120", len(deck))
	}
	cost := func(k int) float64 { return deckCostsMS[k] }
	var seq []int
	for d := 0; d < decks; d++ {
		seq = append(seq, deck...)
	}
	c := New(Config{MaxEntries: size})
	missed := 0.0
	for i, k := range seq {
		key, id := testKey(k), fmt.Sprintf("r%d", i)
		if res, _, leader := c.Begin(key, id); res == nil {
			if !leader {
				t.Fatalf("request %d coalesced in a sequential replay", i)
			}
			missed += cost(k)
			ms := time.Duration(cost(k) * float64(time.Millisecond))
			if err := c.Complete(key, id, jobs.Encode(testRes(k)), ms, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	lru := lruMissCost(seq, size, cost)
	t.Logf("miss cost %.0f ms = %.2f × LRU's %.0f ms; stats %+v", missed, missed/lru, lru, c.Stats())
	if missed > 0.6*lru {
		t.Fatalf("miss cost %.0f ms is %.2f of LRU's %.0f ms, want <= 0.6", missed, missed/lru, lru)
	}
}

func TestCacheCoalescing(t *testing.T) {
	c := New(Config{})
	k := testKey(0)
	if _, _, leader := c.Begin(k, "leader"); !leader {
		t.Fatal("first Begin must become leader")
	}
	for i := 0; i < 3; i++ {
		res, leaderID, leader := c.Begin(k, fmt.Sprintf("f%d", i))
		if res != nil || leader || leaderID != "leader" {
			t.Fatalf("follower Begin = (%v, %q, %v), want attach to leader", res, leaderID, leader)
		}
	}
	if st := c.Stats(); st.Coalesced != 3 || st.Flights != 1 {
		t.Fatalf("stats = %+v, want 3 coalesced, 1 flight", st)
	}
	if err := c.Complete(k, "leader", jobs.Encode(testRes(0)), time.Millisecond, nil); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	// After completion, new submitters hit the cache.
	res, leaderID, leader := c.Begin(k, "late")
	if res == nil || leaderID != "" || leader {
		t.Fatalf("Begin after Complete = (%v, %q, %v), want cache hit", res, leaderID, leader)
	}
	if st := c.Stats(); st.Flights != 0 {
		t.Fatalf("flight not cleared: %+v", st)
	}
}

func TestCacheAbortClearsFlight(t *testing.T) {
	c := New(Config{})
	k := testKey(0)
	c.Begin(k, "leader")
	c.Begin(k, "follower")
	// A non-leader abort is a no-op.
	c.Abort(k, "follower")
	if _, leaderID, _ := c.Begin(k, "f2"); leaderID != "leader" {
		t.Fatalf("flight should survive non-leader abort, got leader %q", leaderID)
	}
	c.Abort(k, "leader")
	if _, _, leader := c.Begin(k, "retry"); !leader {
		t.Fatal("after leader abort the next Begin must start a fresh flight")
	}
	// A stale Complete from the aborted leader must not insert.
	if err := c.Complete(k, "leader", jobs.Encode(testRes(0)), time.Millisecond, nil); err != nil {
		t.Fatalf("stale Complete: %v", err)
	}
	if resident(c, k) {
		t.Fatal("stale Complete after abort must not populate the cache")
	}
}

func TestCacheVerifyOnInsertRejects(t *testing.T) {
	c := New(Config{Verify: true})
	k := testKey(0)
	c.Begin(k, "leader")
	bad := errors.New("proof rejected")
	if err := c.Complete(k, "leader", jobs.Encode(testRes(0)), time.Millisecond, func(*jobs.Result) error { return bad }); !errors.Is(err, bad) {
		t.Fatalf("Complete with failing check = %v, want %v", err, bad)
	}
	if resident(c, k) {
		t.Fatal("verify-rejected result must not be cached")
	}
	st := c.Stats()
	if st.VerifyRejected != 1 || st.Flights != 0 {
		t.Fatalf("stats = %+v, want 1 verify-rejected and flight cleared", st)
	}
	// The key is provable again.
	if _, _, leader := c.Begin(k, "retry"); !leader {
		t.Fatal("key must accept a new leader after verify rejection")
	}
	if err := c.Complete(k, "retry", jobs.Encode(testRes(0)), time.Millisecond, func(*jobs.Result) error { return nil }); err != nil {
		t.Fatalf("Complete with passing check: %v", err)
	}
	if !resident(c, k) {
		t.Fatal("verified result must be cached")
	}
}

func TestCachePutSeedsWithoutFlight(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	k := testKey(0)
	c.Put(k, testRes(0))
	if res, _, _ := c.Begin(k, "j0"); res == nil || res.Proof[0] != 0 {
		t.Fatal("Put must make the result visible to Begin")
	}
	// Put twice refreshes in place.
	c.Put(k, testRes(7))
	if res, _, _ := c.Begin(k, "j1"); res == nil || res.Proof[0] != 7 {
		t.Fatal("second Put must refresh the entry")
	}
	if st := c.Stats(); st.Inserted != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one inserted entry", st)
	}
	// Put inserts into a full cache too, and an entry it made has no
	// measured cost, so it is the first to go.
	complete(t, c, testKey(1), "j2", testRes(1), time.Millisecond)
	c.Put(testKey(2), testRes(2))
	if !resident(c, testKey(2)) || resident(c, k) {
		t.Fatal("Put into a full cache must insert, evicting the zero-cost Put entry")
	}
}

// TestCacheConcurrentHammer drives many goroutines through the full
// Begin/Complete/Abort/Put surface of a cache smaller than its key set,
// under the race detector: exactly one leader per key per generation,
// every served result the right one, and the counts bounded.
func TestCacheConcurrentHammer(t *testing.T) {
	const size = 4
	c := New(Config{MaxEntries: size})
	const workers = 16
	const keys = 2 * size
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ki := (w + i) % keys
				k := testKey(ki)
				id := fmt.Sprintf("w%d-%d", w, i)
				res, _, leader := c.Begin(k, id)
				switch {
				case leader && i%3 == 0:
					c.Abort(k, id)
				case leader:
					_ = c.Complete(k, id, jobs.Encode(testRes(ki)), time.Duration(1+ki)*time.Millisecond, nil)
				case res != nil:
					if res.Proof[0] != byte(ki) {
						t.Errorf("key %d served foreign proof %v", ki, res.Proof)
					}
				}
				if i%7 == 0 {
					c.Put(k, testRes(ki))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Flights != 0 || st.Entries > size {
		t.Fatalf("flights leaked or size exceeded: %+v", st)
	}
	if st.Hits+st.Misses+st.Coalesced != workers*50 {
		// Every Begin counts exactly one of hit/miss/coalesced.
		t.Fatalf("counter accounting off: %+v", st)
	}
	c.mu.Lock()
	n := c.entries.Counted()
	c.mu.Unlock()
	if n > keys {
		t.Fatalf("count map holds %d keys, want <= %d", n, keys)
	}
}
