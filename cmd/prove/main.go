// Command prove generates and verifies proofs from the command line: a
// Plonky2-style proof for a Table 3 workload, or a Starky base proof.
// Requests are built with internal/jobs, the same package the proving
// service uses, so local and remote proofs are bit-identical.
//
// Usage:
//
//	prove -protocol plonky2 -app "Image Crop" -rows 10
//	prove -protocol starky -app Fibonacci -rows 12 -timeout 30s
//	prove -remote http://127.0.0.1:8427 -app Fibonacci -rows 10
//	prove -remote http://127.0.0.1:8427 -app Fibonacci -rows 10 -retries 5
//
// -workers sets the shared prover pool size. It is independent of
// GOMAXPROCS: the Go scheduler still multiplexes the pool's goroutines
// onto GOMAXPROCS OS threads, so -workers above GOMAXPROCS adds no
// parallelism, only queueing. 0 keeps the default (NumCPU).
//
// Exit codes distinguish failure stages so scripts can react:
//
//	1  usage error (bad flags, unknown protocol or workload, refused request)
//	2  circuit/trace build failure
//	3  proving failure (including -timeout expiry and remote errors)
//	4  verification failure
package main

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"unizk/internal/jobs"
	"unizk/internal/parallel"
	"unizk/internal/serverclient"
)

// Exit codes, one per pipeline stage.
const (
	exitUsage  = 1
	exitBuild  = 2
	exitProve  = 3
	exitVerify = 4
)

func main() {
	protocol := flag.String("protocol", "plonky2", "plonky2 or starky")
	app := flag.String("app", "Fibonacci", "workload name")
	rows := flag.Int("rows", 10, "log2 of rows")
	timeout := flag.Duration("timeout", 0, "abort proving after this duration (0 = no limit)")
	remote := flag.String("remote", "", "prove on a unizk-server at this base URL instead of locally")
	workers := flag.Int("workers", 0, "prover pool size for local proving (0 = NumCPU; capped by GOMAXPROCS in practice)")
	retries := flag.Int("retries", 1, "attempts per remote request, the first included (1 = no retry); retries transport faults and 429/502/503")
	idemKey := flag.String("idempotency-key", "", "idempotency key for remote submits; auto-generated when -retries > 1")
	apiKey := flag.String("api-key", "", "tenant API key for remote submits (sent as Authorization: Bearer)")
	stream := flag.Bool("stream", false, "submit async and stream job progress (SSE, falling back to polling)")
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	kind, err := jobs.KindByName(*protocol)
	exitOn(err, exitUsage)
	req := &jobs.Request{Kind: kind, Workload: *app, LogRows: *rows, IdempotencyKey: *idemKey}

	if *remote != "" {
		runRemote(ctx, *remote, req, *timeout, *retries, *apiKey, *stream)
		return
	}
	runLocal(ctx, req)
}

// runLocal compiles and proves in-process, exactly as before the
// proving service existed.
func runLocal(ctx context.Context, req *jobs.Request) {
	j, err := jobs.Compile(req)
	exitOn(err, compileExitCode(err))
	fmt.Println(j.Describe())
	fmt.Printf("soundness: %d bits\n", j.SecurityBits())

	start := time.Now()
	res, err := j.Prove(ctx)
	exitOn(err, exitProve)
	fmt.Printf("proved in %v (%d proof bytes)\n", time.Since(start), len(res.Proof))

	start = time.Now()
	exitOn(j.Check(res), exitVerify)
	fmt.Printf("verified in %v\n", time.Since(start))
}

// runRemote submits the job on the service's synchronous endpoint and
// re-verifies the returned proof locally, so a lying server still
// exits 4. With -retries N > 1 the client makes up to N attempts per
// request, retrying retryable failures under an idempotency key, so a
// retried submit that raced a lost response attaches to the original
// job instead of proving twice.
func runRemote(ctx context.Context, baseURL string, req *jobs.Request, timeout time.Duration, retries int, apiKey string, stream bool) {
	c := serverclient.New(baseURL)
	c.APIKey = apiKey
	if retries > 1 {
		if req.IdempotencyKey == "" {
			key, err := randomIdempotencyKey()
			exitOn(err, exitProve)
			req.IdempotencyKey = key
		}
		c.Retry = &serverclient.RetryPolicy{MaxAttempts: retries}
	}
	fmt.Printf("remote prove: %s %q 2^%d rows via %s\n", req.Kind, req.Workload, req.LogRows, baseURL)

	start := time.Now()
	var res *jobs.Result
	var err error
	if stream {
		// Async submit, then follow the job's progress events; each
		// status line is one SSE update. A failed stream falls back to
		// polling, which prints none.
		var id string
		id, err = c.Submit(ctx, req, serverclient.Options{Timeout: timeout})
		exitOn(err, remoteExitCode(err))
		fmt.Printf("submitted %s\n", id)
		res, err = c.WaitStream(ctx, id, func(st *serverclient.JobStatus) {
			fmt.Println(st.String())
		})
	} else {
		res, err = c.Prove(ctx, req, serverclient.Options{Timeout: timeout})
	}
	exitOn(err, remoteExitCode(err))
	fmt.Printf("proved in %v (%d proof bytes)\n", time.Since(start), len(res.Proof))

	start = time.Now()
	exitOn(jobs.CheckResult(req, res), exitVerify)
	fmt.Printf("verified locally in %v\n", time.Since(start))
}

// compileExitCode distinguishes bad requests (usage) from circuit or
// trace construction failures (build).
func compileExitCode(err error) int {
	switch {
	case errors.Is(err, jobs.ErrBuild):
		return exitBuild
	default:
		return exitUsage
	}
}

// remoteExitCode maps the server's reply onto the local exit codes:
// 4xx request rejections (including idempotency-key conflicts) are
// usage errors, everything else (including transport failures and
// server-side prove errors) is a prove failure.
func remoteExitCode(err error) int {
	var apiErr *serverclient.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case 400, 404, 409, 422:
			return exitUsage
		}
	}
	return exitProve
}

// randomIdempotencyKey generates a fresh key for one CLI invocation's
// retries: unique across invocations (each run is a new logical
// request), stable within one (every retry replays the same request).
func randomIdempotencyKey() (string, error) {
	var buf [16]byte
	if _, err := cryptorand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("generating idempotency key: %w", err)
	}
	return "prove-" + hex.EncodeToString(buf[:]), nil
}

func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "prove:", err)
		os.Exit(code)
	}
}
