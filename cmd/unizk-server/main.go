// Command unizk-server runs the proving service: an HTTP API that
// queues Plonky2/Starky proving jobs behind a bounded queue, proves
// them on the shared worker pool, and serves results: the job-lifecycle
// core (internal/jobcore, which owns the API surface) with the local
// executor (internal/server). See DESIGN.md §10.
//
// Usage:
//
//	unizk-server -addr 127.0.0.1:8427 -queue 64 -inflight 2
//
// -workers sets the shared prover pool size. It is independent of
// GOMAXPROCS: the Go scheduler multiplexes pool goroutines onto
// GOMAXPROCS OS threads, so values above GOMAXPROCS add queueing, not
// parallelism. Total prover concurrency is roughly inflight × workers
// worker-slots contending for GOMAXPROCS threads.
//
// On SIGINT/SIGTERM the server drains: new submissions get 503,
// queued jobs are rejected as retryable, in-flight jobs get -drain to
// finish before being force-canceled.
package main

import (
	"flag"
	"fmt"
	"time"

	"unizk/cmd/internal/serving"
	"unizk/internal/parallel"
	"unizk/internal/proofcache"
	"unizk/internal/server"
)

// options is every flag of the binary: the shared serving flags plus
// the local executor's.
type options struct {
	*serving.Flags
	queueCap, inflight, workers, registry *int
	idemTTL                               *time.Duration
}

func registerFlags(fs *flag.FlagSet) options {
	return options{
		Flags: serving.Register(fs, serving.Tier{
			Name:        "unizk-server",
			Addr:        "127.0.0.1:8427",
			AddrHelp:    "listen address (use :0 for an ephemeral port)",
			Drain:       30 * time.Second,
			DrainHelp:   "how long shutdown waits for in-flight jobs before canceling them",
			CacheHelp:   "content-addressed proof cache entries (0 = cache off)",
			JournalHelp: "write-ahead journal directory; admitted jobs survive server crashes (empty = journaling off)",
		}),
		queueCap: fs.Int("queue", 64, "queued-job capacity before submissions get 429"),
		inflight: fs.Int("inflight", 2, "jobs proving concurrently"),
		workers:  fs.Int("workers", 0, "prover pool size shared by all in-flight jobs (0 = NumCPU)"),
		idemTTL:  fs.Duration("idem-ttl", 10*time.Minute, "how long a submitted idempotency key deduplicates retries"),
		registry: fs.Int("registry", proofcache.DefaultRegistryBytes>>20, "precompiled-circuit registry budget in MiB: each circuit compiles once, and past the budget the circuits worth least (requests × compile time ÷ bytes) are evicted (0 = off)"),
	}
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		o.Fatal(err)
	}
}

func run(o options) error {
	opt, err := o.Options()
	if err != nil {
		return err
	}
	opt.IdempotencyTTL = *o.idemTTL
	if *o.workers > 0 {
		parallel.SetWorkers(*o.workers)
	}
	registry := int64(*o.registry) << 20
	if registry <= 0 {
		registry = -1 // server.Config: negative is off
	}
	s, err := server.NewDurable(server.Config{
		Options:       opt,
		QueueCap:      *o.queueCap,
		MaxInFlight:   *o.inflight,
		RegistryBytes: registry,
	})
	if err != nil {
		return err
	}
	detail := fmt.Sprintf("(queue=%d inflight=%d workers=%d)", *o.queueCap, *o.inflight, parallel.Workers())
	return o.Serve(s.Handler(), detail, s.Shutdown, nil)
}
