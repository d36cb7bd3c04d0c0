// Command unizk-cluster runs the fault-tolerant proving cluster
// coordinator: the same HTTP job API as unizk-server, fronting N
// prover nodes with least-loaded placement and health-probed failover —
// the job-lifecycle core (internal/jobcore) with the remote executor
// (internal/cluster). See DESIGN.md §10 and §12.
//
// Point it at existing nodes:
//
//	unizk-cluster -addr 127.0.0.1:8500 \
//	    -nodes http://127.0.0.1:8427,http://127.0.0.1:8428
//
// or let it spawn a local fleet in-process (each node is a full
// internal/server instance on its own ephemeral port — handy for
// development and demos, not a substitute for separate processes):
//
//	unizk-cluster -addr 127.0.0.1:8500 -spawn 3
//
// On SIGINT/SIGTERM the coordinator drains: new submissions get 503,
// in-flight cluster jobs run to completion (bounded by -drain), then
// any self-spawned nodes drain too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"unizk/cmd/internal/serving"
	"unizk/internal/cluster"
	"unizk/internal/server"
)

// options is every flag of the binary: the shared serving flags plus
// the remote executor's.
type options struct {
	*serving.Flags
	nodes        *string
	spawn        *int
	probe, stale *time.Duration
}

func registerFlags(fs *flag.FlagSet) options {
	return options{
		Flags: serving.Register(fs, serving.Tier{
			Name:        "unizk-cluster",
			Addr:        "127.0.0.1:8500",
			AddrHelp:    "coordinator listen address (use :0 for an ephemeral port)",
			Drain:       60 * time.Second,
			DrainHelp:   "how long shutdown waits for in-flight cluster jobs",
			CacheHelp:   "coordinator proof cache entries (0 = cache off)",
			JournalHelp: "write-ahead journal directory; admitted jobs survive coordinator crashes (empty = journaling off)",
		}),
		nodes: fs.String("nodes", "", "comma-separated prover node base URLs"),
		spawn: fs.Int("spawn", 0, "spawn N in-process prover nodes on ephemeral ports (instead of -nodes)"),
		probe: fs.Duration("probe", 250*time.Millisecond, "health/load probe interval per node"),
		stale: fs.Duration("stale", 3*time.Second, "failed-probe duration after which a node is ejected"),
	}
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		o.Fatal(err)
	}
}

// localNode is one self-spawned in-process prover node.
type localNode struct {
	srv *server.Server
	hs  *http.Server
	url string
}

// spawnLocal starts n prover nodes on ephemeral loopback ports.
func spawnLocal(n int) ([]*localNode, []string, error) {
	var locals []*localNode
	var urls []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range locals {
				l.hs.Close()
			}
			return nil, nil, err
		}
		s := server.New(server.Config{})
		hs := &http.Server{Handler: s.Handler()}
		//unizklint:allow goroutinelife(embedded node server; exits when run calls l.hs.Shutdown during drain, or hs.Close on spawn failure)
		go func() { _ = hs.Serve(ln) }()
		u := "http://" + ln.Addr().String()
		locals = append(locals, &localNode{srv: s, hs: hs, url: u})
		urls = append(urls, u)
	}
	return locals, urls, nil
}

func run(o options) error {
	opt, err := o.Options()
	if err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*o.nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if *o.spawn > 0 && len(urls) > 0 {
		return errors.New("use -nodes or -spawn, not both")
	}
	var locals []*localNode
	if *o.spawn > 0 {
		locals, urls, err = spawnLocal(*o.spawn)
		if err != nil {
			return err
		}
		fmt.Printf("unizk-cluster: spawned %d local nodes: %s\n", *o.spawn, strings.Join(urls, " "))
	}
	if len(urls) == 0 {
		return errors.New("no prover nodes: pass -nodes or -spawn")
	}

	coord, err := cluster.New(cluster.Config{
		Options:       opt,
		Nodes:         urls,
		ProbeInterval: *o.probe,
		StaleAfter:    *o.stale,
	})
	if err != nil {
		return err
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = coord.WaitReady(rctx)
	rcancel()
	if err != nil {
		fmt.Println("unizk-cluster: warning: no node answered a probe yet; serving anyway")
	}

	detail := fmt.Sprintf("(nodes=%d probe=%v stale=%v)", len(urls), *o.probe, *o.stale)
	return o.Serve(coord.Handler(), detail, coord.Shutdown, func(ctx context.Context) {
		// Self-spawned nodes drain after the coordinator that feeds them.
		for _, l := range locals {
			_ = l.srv.Shutdown(ctx)
			_ = l.hs.Shutdown(ctx)
		}
	})
}
