package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"unizk/internal/jobs"
)

// instance is one pinned proof job. Which instance is picked decides the
// 16-bit proof-of-work grind (295 to 375 306 tries across the seed tree's
// workloads), so every workload names its instances here and nothing is
// drawn from a generator.
type instance struct {
	Kind     jobs.Kind
	Workload string
	LogRows  int
}

func (in instance) String() string {
	return fmt.Sprintf("%s/%s/2^%d", in.Kind, in.Workload, in.LogRows)
}

func (in instance) request() *jobs.Request {
	return &jobs.Request{Kind: in.Kind, Workload: in.Workload, LogRows: in.LogRows}
}

func plonky(workload string, logRows int) instance {
	return instance{jobs.KindPlonk, workload, logRows}
}

func starky(workload string, logRows int) instance {
	return instance{jobs.KindStark, workload, logRows}
}

// pin is what the seed tree produced for an instance: the exact grind
// attempt count and the SHA-256 of the marshaled proof. A run whose
// direct-path proof differs from its pin proved a different transcript
// and is marked not comparable.
type pin struct {
	Tries  int    `json:"grind_tries"`
	SHA256 string `json:"proof_sha256"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]pin, error) {
	pins := map[string]pin{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// writePins stores pins next to the sources (the program runs from the
// benchmark directory).
func writePins(pins map[string]pin) error {
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("pins.json", append(data, '\n'), 0o644)
}

// workload is one traffic mix. Direct workloads prove in-process in a
// closed loop with one client; served workloads drive a cmd/unizk-server
// child, first in a closed loop with nproc clients, then in an open loop
// at the frozen Rate.
type workload struct {
	Name string
	Why  string

	Instances []instance

	Served bool
	// ServerArgs are appended to the child's command line; "JOURNAL" is
	// replaced by a fresh directory under the output directory.
	ServerArgs []string
	// Sync selects POST /v1/prove in one call; otherwise the async
	// protocol is used: submit, SSE status stream, fetch.
	Sync bool
	// Tenants are API keys requests are spread over; empty means the
	// default tenant.
	Tenants []string
	// ZipfS > 0 makes content popularity a Zipf law with that exponent
	// (Instances order is the rank order); 0 makes contents equally
	// popular. Either way requests are dealt from a deck (loadgen.go).
	ZipfS float64
	// Rate is the frozen open-loop arrival rate in requests per second,
	// about half the closed-loop throughput measured on the seed tree.
	Rate float64
	// Limit is the latency limit: a reply later than this misses.
	Limit time.Duration
}

// closedShare is the part of a served run's measuring time spent in the
// closed loop; the rest is the open loop.
const closedShare = 0.25

// workloads is the benchmark's fixed set. Sizes are scaled to the
// pipeline's run budget (about 20 s of measuring per run on 2 cores):
// rounds of about 1 s for the direct workloads and at least 100
// open-loop requests for the served ones.
var workloads = []workload{
	{
		Name: "prove-merkle",
		Why:  "Merkle/Poseidon is about 3/4 of prove time, NTT+poly reach their largest share, grind is under 5%: Poseidon, NTT, poly and worker-pool changes must show here",
		Instances: []instance{
			plonky("MVM", 11),
			starky("SHA-256", 12),
		},
	},
	{
		Name: "prove-grind",
		Why:  "about 85% of prove time is the serial proof-of-work grind, one permutation at a time on one core: batched Merkle, NTT and pool changes predict no change here",
		Instances: []instance{
			plonky("Fibonacci", 7),
			starky("SHA-256", 10),
		},
	},
	{
		Name: "serve-cold",
		Why:  "server at shipping defaults (no cache, registry or journal), async submit/stream/fetch over 8 contents: compile, prove and queueing dominate, so it bypasses the cache tier",
		Instances: []instance{
			starky("Factorial", 5),
			starky("SHA-256", 6),
			starky("Factorial", 7),
			starky("AES-128", 6),
			plonky("MVM", 4),
			starky("Factorial", 8),
			starky("SHA-256", 9),
			plonky("Factorial", 7),
		},
		Served: true,
		Rate:   6.0,
		Limit:  2 * time.Second,
	},
	{
		Name: "serve-hot",
		Why:  "cache 12, registry, journal and two tenants, sync prove, Zipf(1.1) over 24 small contents (2x the cache): the median reply is a cache hit, so cache, journal, tenant and HTTP changes show here",
		Instances: []instance{
			starky("SHA-256", 8),
			plonky("Factorial", 7),
			starky("Factorial", 7),
			plonky("SHA-256", 8),
			starky("SHA-256", 9),
			starky("AES-128", 6),
			plonky("Fibonacci", 8),
			starky("SHA-256", 7),
			starky("Factorial", 8),
			plonky("MVM", 4),
			starky("Fibonacci", 8),
			starky("SHA-256", 6),
			plonky("Image Crop", 5),
			starky("Factorial", 5),
			starky("SHA-256", 11),
			plonky("ECDSA", 8),
			starky("AES-128", 9),
			starky("SHA-256", 4),
			plonky("Factorial", 4),
			starky("Fibonacci", 5),
			plonky("Image Crop", 6),
			starky("Factorial", 3),
			plonky("Factorial", 6),
			starky("Factorial", 4),
		},
		Served: true,
		ServerArgs: []string{"-cache", "12", "-registry", "32", "-journal", "JOURNAL", "-fsync", "batch",
			"-tenant", "gold:bench-gold-key:class=1", "-tenant", "bronze:bench-bronze-key:class=0"},
		Sync:    true,
		Tenants: []string{"bench-gold-key", "bench-bronze-key"},
		ZipfS:   1.1,
		Rate:    8.0,
		Limit:   time.Second,
	},
}

// smokeWorkloads mirror the four workloads on 2^5 instances for the
// package's tests.
var smokeWorkloads = func() []workload {
	small := []instance{starky("Factorial", 5), plonky("Image Crop", 5)}
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		w.Instances = small
		w.Rate = 4
		out[i] = w
	}
	return out
}()

// probeInstance is the small job the cluster-hop probe sends.
var probeInstance = starky("SHA-256", 7)

func workloadByName(set []workload, name string) (workload, error) {
	for _, w := range set {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// allInstances returns every distinct instance of the sets, sorted by
// name, for pin updates.
func allInstances(sets ...[]workload) []instance {
	seen := map[string]instance{probeInstance.String(): probeInstance}
	for _, set := range sets {
		for _, w := range set {
			for _, in := range w.Instances {
				seen[in.String()] = in
			}
		}
	}
	out := make([]instance, 0, len(seen))
	for _, in := range seen {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
