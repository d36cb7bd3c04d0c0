package serverclient

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"unizk/internal/jobs"
)

// restartableServer is a bare HTTP server the test can kill and bring
// back on the same address — the client-visible shape of a coordinator
// being SIGKILLed and restarted on its journal.
type restartableServer struct {
	t    *testing.T
	addr string
	hs   *http.Server
}

func startRestartable(t *testing.T, h http.Handler) *restartableServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartableServer{t: t, addr: ln.Addr().String()}
	rs.serve(ln, h)
	return rs
}

func (rs *restartableServer) serve(ln net.Listener, h http.Handler) {
	rs.hs = &http.Server{Handler: h}
	hs := rs.hs
	go func() { _ = hs.Serve(ln) }()
}

// kill closes the listener and every live connection, as a crash would.
func (rs *restartableServer) kill() { _ = rs.hs.Close() }

// restart brings a new handler up on the same address.
func (rs *restartableServer) restart(h http.Handler) {
	rs.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", rs.addr)
		if err == nil {
			rs.serve(ln, h)
			return
		}
		if time.Now().After(deadline) {
			rs.t.Fatalf("re-listen on %s: %v", rs.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// terminalHandler is the restarted coordinator: the journal replayed
// the job, so its result is served by id.
func terminalHandler(id string, res *jobs.Result) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs/"+id+"/proof", func(w http.ResponseWriter, r *http.Request) {
		raw, _ := res.MarshalBinary()
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(raw)
	})
	mux.HandleFunc("/v1/jobs/"+id, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"done"}`, id)
	})
	return mux
}

// TestWaitSurvivesRestart kills the server while a Wait is polling a
// not-yet-finished job and restarts it on the same address with the
// job's (journal-recovered) result. Wait must absorb the transport
// faults of the outage and return the result, not surface the blip.
func TestWaitSurvivesRestart(t *testing.T) {
	req := &jobs.Request{Kind: jobs.KindPlonk, Workload: "Fibonacci", LogRows: 4}
	res, err := proveDirect(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	const id = "c00000042"
	var polled atomic.Int64
	notReady := http.NewServeMux()
	notReady.HandleFunc("/v1/jobs/"+id+"/proof", func(w http.ResponseWriter, r *http.Request) {
		polled.Add(1)
		w.WriteHeader(http.StatusAccepted)
	})
	rs := startRestartable(t, notReady)
	t.Cleanup(rs.kill)

	c := New("http://" + rs.addr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type outcome struct {
		res *jobs.Result
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		r, err := c.Wait(ctx, id)
		got <- outcome{r, err}
	}()

	// Let Wait observe the pre-crash server at least once, then kill it
	// mid-wait and hold the address dark for a few poll intervals.
	deadline := time.Now().Add(5 * time.Second)
	for polled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Wait never polled the first server")
		}
		time.Sleep(time.Millisecond)
	}
	rs.kill()
	time.Sleep(50 * time.Millisecond)
	rs.restart(terminalHandler(id, res))

	out := <-got
	if out.err != nil {
		t.Fatalf("Wait across restart: %v", out.err)
	}
	if !bytes.Equal(out.res.Proof, res.Proof) {
		t.Fatal("Wait returned a different proof after the restart")
	}
}

// TestWaitStreamSurvivesRestart kills the server mid-SSE-stream. The
// severed stream is a transport failure, so WaitStream must degrade
// through its fallbacks and pick the result up from the restarted
// server rather than reporting the outage.
func TestWaitStreamSurvivesRestart(t *testing.T) {
	req := &jobs.Request{Kind: jobs.KindStark, Workload: "Factorial", LogRows: 4}
	res, err := proveDirect(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	const id = "c00000043"
	streaming := make(chan struct{}, 1)
	hang := make(chan struct{})
	sse := http.NewServeMux()
	sse.HandleFunc("/v1/jobs/"+id, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: status\ndata: {\"id\":%q,\"state\":\"running\"}\n\n", id)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select {
		case streaming <- struct{}{}:
		default:
		}
		<-hang // stream stays open until the "crash"
	})
	rs := startRestartable(t, sse)
	t.Cleanup(rs.kill)
	t.Cleanup(func() { close(hang) })

	c := New("http://" + rs.addr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type outcome struct {
		res *jobs.Result
		err error
	}
	got := make(chan outcome, 1)
	var sawRunning atomic.Bool
	go func() {
		r, err := c.WaitStream(ctx, id, func(st *JobStatus) {
			if st.State == "running" {
				sawRunning.Store(true)
			}
		})
		got <- outcome{r, err}
	}()

	select {
	case <-streaming:
	case <-time.After(5 * time.Second):
		t.Fatal("stream was never established")
	}
	rs.kill()
	time.Sleep(50 * time.Millisecond)
	rs.restart(terminalHandler(id, res))

	out := <-got
	if out.err != nil {
		t.Fatalf("WaitStream across restart: %v", out.err)
	}
	if !bytes.Equal(out.res.Proof, res.Proof) {
		t.Fatal("WaitStream returned a different proof after the restart")
	}
	if !sawRunning.Load() {
		t.Fatal("stream callback never saw the pre-crash running status")
	}
}

// proveDirect compiles and proves req outside any service: the proof a
// served one is held against.
func proveDirect(ctx context.Context, req *jobs.Request) (*jobs.Result, error) {
	j, err := jobs.Compile(req)
	if err != nil {
		return nil, err
	}
	return j.Prove(ctx)
}
