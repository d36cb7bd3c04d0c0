package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// maxLagP99 is the latest the open-loop generator may run behind its own
// schedule (p99 of send time minus due time for requests that found a
// free connection) before the run's latencies are not trusted.
const maxLagP99 = 100 * time.Millisecond

// schedule returns the due offsets of an open loop at rate requests per
// second over dur. Arrivals are Poisson within each second and stratified
// across seconds: second k gets round(rate·(k+1)) − round(rate·k) arrivals,
// placed uniformly at random inside it. Every seed so offers the same load
// in every second and differs in the sub-second bursts that build queues;
// the runs of a set then differ by the system's noise, not by how many
// requests a 20 s window happened to draw.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for k := 0; time.Duration(k)*time.Second < dur; k++ {
		lo := time.Duration(k) * time.Second
		width := min(time.Second, dur-lo)
		n := int(math.Round(rate*(lo+width).Seconds())) - int(math.Round(rate*lo.Seconds()))
		first := len(out)
		for i := 0; i < n; i++ {
			out = append(out, lo+time.Duration(rng.Float64()*float64(width)))
		}
		second := out[first:]
		sort.Slice(second, func(i, j int) bool { return second[i] < second[j] })
	}
	return out
}

// draw is one generated request: which content, for which tenant.
type draw struct {
	inst   int
	tenant int
}

// deckPerContent sizes a Zipf deck: deckPerContent·n cards for n contents.
const deckPerContent = 5

// deckOrderSeed fixes the order of the cards in a deck. Like the
// instances, the request order is pinned: under an LRU cache the order
// decides how many requests miss, so a deck shuffled per seed would give
// every seed a different amount of proving (closed-loop throughput then
// spread over 10-14% on serve-hot). The run's seed decides where in the
// deck it starts, each request's tenant, and the arrival times.
const deckOrderSeed = 20250925

// drawer generates the request sequence of a served workload by dealing
// a deck over and over. A deck holds each content in proportion to its
// popularity. It is shared by the closed-loop clients, so it locks.
type drawer struct {
	mu      sync.Mutex
	rng     *rand.Rand
	tenants int
	cards   []int // one deck, in its pinned order
	pos     int   // next card
}

// newDrawer deals over n contents. With zipfS > 0 content k (0-based
// rank) has popularity 1/(k+1)^zipfS and round(deckPerContent·n·p_k) cards,
// at least one; otherwise every content has one card.
func newDrawer(rng *rand.Rand, n, tenants int, zipfS float64) *drawer {
	d := &drawer{rng: rng, tenants: max(tenants, 1)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), zipfS)
	}
	for k := 0; k < n; k++ {
		cards := 1
		if zipfS > 0 {
			p := 1 / math.Pow(float64(k+1), zipfS) / total
			cards = max(1, int(math.Round(deckPerContent*float64(n)*p)))
		}
		for i := 0; i < cards; i++ {
			d.cards = append(d.cards, k)
		}
	}
	rand.New(rand.NewSource(deckOrderSeed)).Shuffle(len(d.cards), func(i, j int) {
		d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
	})
	d.pos = rng.Intn(len(d.cards))
	return d
}

func (d *drawer) next() draw {
	d.mu.Lock()
	defer d.mu.Unlock()
	inst := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return draw{inst: inst, tenant: d.rng.Intn(d.tenants)}
}
