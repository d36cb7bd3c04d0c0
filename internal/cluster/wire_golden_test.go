package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/server"
	"unizk/internal/serverclient"
)

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_keys.golden from the running code")

// TestWireKeysGolden pins the JSON key set of GET /metrics and GET
// /healthz on both tiers, with the journal and the proof cache each on
// and off. Every tier first serves the same content twice through the
// sync-prove route (a second prove with the cache off, a hit with it
// on), so the omitempty sections that only traffic populates are in the
// picture. The golden was generated before the tiers were folded onto
// internal/jobcore; a key added, dropped or renamed on either tier is a
// wire change and fails here.
func TestWireKeysGolden(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Fibonacci", LogRows: 5}

	var out strings.Builder
	for _, journalOn := range []bool{false, true} {
		for _, cacheOn := range []bool{false, true} {
			name := fmt.Sprintf("journal=%v cache=%v", journalOn, cacheOn)
			cacheEntries := 0
			if cacheOn {
				cacheEntries = 8
			}
			dir := func() string {
				if journalOn {
					return t.TempDir()
				}
				return ""
			}

			s, err := server.NewDurable(server.Config{CacheEntries: cacheEntries, JournalDir: dir()})
			if err != nil {
				t.Fatal(err)
			}
			sts := httptest.NewServer(s.Handler())
			driveWireTraffic(t, ctx, sts.URL, req)
			dumpWireKeys(t, &out, "server "+name, sts.URL)

			// The node behind the coordinator stays a plain server: the
			// coordinator's own surface is what is pinned here.
			n := startTestNode(t, server.Config{})
			cfg := fastConfig(n.url)
			cfg.CacheEntries, cfg.JournalDir = cacheEntries, dir()
			coord, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cts := httptest.NewServer(coord.Handler())
			rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
			if err := coord.WaitReady(rctx); err != nil {
				t.Fatal(err)
			}
			rcancel()
			driveWireTraffic(t, ctx, cts.URL, req)
			dumpWireKeys(t, &out, "cluster "+name, cts.URL)

			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = coord.Shutdown(sctx)
			cts.Close()
			n.kill()
			_ = s.Shutdown(sctx)
			sts.Close()
			scancel()
		}
	}

	const path = "testdata/wire_keys.golden"
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("wire key set drifted from %s (rerun with -update-wire-golden only for a deliberate wire change)\n--- got\n%s\n--- want\n%s",
			path, got, want)
	}
}

// driveWireTraffic proves the same content twice synchronously.
func driveWireTraffic(t *testing.T, ctx context.Context, url string, req *jobs.Request) {
	t.Helper()
	cl := serverclient.New(url)
	for i := 0; i < 2; i++ {
		if _, err := cl.Prove(ctx, req, serverclient.Options{}); err != nil {
			t.Fatalf("prove %d against %s: %v", i, url, err)
		}
	}
}

// dumpWireKeys appends the sorted key paths of both documents, one per
// line, under the given label.
func dumpWireKeys(t *testing.T, out *strings.Builder, label, url string) {
	t.Helper()
	for _, route := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(url + route)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s %s: %v\n%s", label, route, err, body)
		}
		set := map[string]bool{}
		collectKeyPaths(doc, "", set)
		paths := make([]string, 0, len(set))
		for p := range set {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Fprintf(out, "%s %s %s\n", label, route, p)
		}
	}
}

// collectKeyPaths walks a decoded JSON document, recording every object
// key as a dotted path; array elements share the "[]" segment.
func collectKeyPaths(v any, prefix string, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			collectKeyPaths(child, p, set)
		}
	case []any:
		for _, child := range x {
			collectKeyPaths(child, prefix+"[]", set)
		}
	}
}
