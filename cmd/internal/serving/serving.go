// Package serving is what cmd/unizk-server and cmd/unizk-cluster share:
// the flags of the job-lifecycle core (internal/jobcore) both binaries
// front, and the listen / serve / drain-on-signal loop around it. Each
// main is then "these flags + its executor's flags + its constructor".
package serving

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unizk/internal/journal"
	"unizk/internal/tenant"
)

// Tier carries what differs between the two binaries for the shared
// flags: the program name, two defaults, and the help texts that name
// the tier.
type Tier struct {
	Name        string // program name, prefixes every log line
	Addr        string // default -addr
	AddrHelp    string
	Drain       time.Duration // default -drain
	DrainHelp   string
	CacheHelp   string
	JournalHelp string
}

// Flags holds the parsed values of the shared flags.
type Flags struct {
	tier Tier

	Addr          *string
	Portfile      *string
	JobTimeout    *time.Duration
	Drain         *time.Duration
	CacheEntries  *int
	CacheTTL      *time.Duration
	CacheVerify   *bool
	JournalDir    *string
	SnapshotEvery *int

	fsync   *string
	tenants tenantFlags
}

// tenantFlags collects repeatable -tenant specs
// (name:key[:class=N][:rate=R][:burst=B][:inflight=M]).
type tenantFlags []tenant.Config

func (f *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*f)) }

func (f *tenantFlags) Set(spec string) error {
	cfg, err := tenant.ParseSpec(spec)
	if err != nil {
		return err
	}
	*f = append(*f, cfg)
	return nil
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet, t Tier) *Flags {
	f := &Flags{
		tier:          t,
		Addr:          fs.String("addr", t.Addr, t.AddrHelp),
		Portfile:      fs.String("portfile", "", "write the bound address to this file once listening (for scripts)"),
		JobTimeout:    fs.Duration("job-timeout", 5*time.Minute, "default per-job deadline, measured from admission"),
		Drain:         fs.Duration("drain", t.Drain, t.DrainHelp),
		CacheEntries:  fs.Int("cache", 0, t.CacheHelp),
		CacheTTL:      fs.Duration("cache-ttl", 0, "cached proof lifetime (0 = proofcache default)"),
		CacheVerify:   fs.Bool("cache-verify", false, "verify each proof before caching it (verify-on-insert)"),
		JournalDir:    fs.String("journal", "", t.JournalHelp),
		SnapshotEvery: fs.Int("snapshot-every", 0, "journal records between snapshot compactions (0 = journal default, negative = never)"),
		fsync:         fs.String("fsync", "batch", "journal fsync policy: always, batch, or off"),
	}
	fs.Var(&f.tenants, "tenant", "tenant spec name:key[:class=N][:rate=R][:burst=B][:inflight=M] (repeatable)")
	return f
}

// Resolve turns the -fsync and -tenant values into what the tier
// configs take; the registry is nil when no -tenant was given.
func (f *Flags) Resolve() (journal.Policy, *tenant.Registry, error) {
	fsync, err := journal.ParsePolicy(*f.fsync)
	if err != nil || len(f.tenants) == 0 {
		return fsync, nil, err
	}
	reg, err := tenant.NewRegistry(f.tenants...)
	return fsync, reg, err
}

// Fatal reports err under the program name and exits 1.
func (f *Flags) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.tier.Name, err)
	os.Exit(1)
}

// Serve listens on -addr, writes -portfile, serves h, and on
// SIGINT/SIGTERM drains: shutdown gets -drain to finish in-flight jobs
// (it returns non-nil if it had to cancel them), then the listener
// closes, then after — when non-nil — stops whatever else the binary
// started. detail is appended to the "listening on" line.
func (f *Flags) Serve(h http.Handler, detail string, shutdown func(context.Context) error, after func(context.Context)) error {
	name := f.tier.Name
	ln, err := net.Listen("tcp", *f.Addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *f.Portfile != "" {
		if err := os.WriteFile(*f.Portfile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Printf("%s listening on %s %s\n", name, bound, detail)

	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	//unizklint:allow goroutinelife(exits when hs.Serve returns; Shutdown below unblocks it and Serve waits on serveErr)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("%s: %v, draining (up to %v)\n", name, sig, *f.Drain)
	case err := <-serveErr:
		return err
	}

	// Drain the jobs first so queued ones are rejected and in-flight
	// proofs finish, then close the HTTP listener.
	dctx, cancel := context.WithTimeout(context.Background(), *f.Drain)
	defer cancel()
	forced := shutdown(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	if after != nil {
		after(dctx)
	}
	if forced != nil {
		fmt.Printf("%s: drain deadline hit, in-flight jobs canceled\n", name)
	} else {
		fmt.Printf("%s: drained cleanly\n", name)
	}
	return nil
}
