package client

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"maybms"
	"maybms/internal/server"
)

// numsRows is the size of the test table: large enough that a stream
// of it spans several read buffers, so a client holds its connection
// until it has read the rows rather than from the first Decode.
const numsRows = 4096

// startServer runs a MayBMS server on an httptest listener that counts
// accepted TCP connections.
func startServer(t *testing.T) (url string, conns *atomic.Int64, shutdown func()) {
	t.Helper()
	mdb := maybms.Open()
	mdb.MustExec(`create table nums (n int)`)
	var ins strings.Builder
	ins.WriteString(`insert into nums values `)
	for i := 0; i < numsRows; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d)", i)
	}
	mdb.MustExec(ins.String())
	srv := server.New(mdb, server.Options{})
	ts := httptest.NewUnstartedServer(srv.Handler())
	conns = &atomic.Int64{}
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	return ts.URL, conns, func() {
		ts.Close()
		srv.Close()
	}
}

// Sequential requests over one client must reuse a single pooled
// connection: if keep-alive were broken (stale deadlines, transport
// misconfiguration), every request would dial anew.
func TestTransportReusesConnectionSequentially(t *testing.T) {
	url, conns, shutdown := startServer(t)
	defer shutdown()
	db, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 12; i++ {
		if _, err := db.Query(`select n from nums order by n`); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("12 sequential queries dialled %d connections, want 1 (keep-alive reuse)", n)
	}
}

// A burst of parallel streaming queries may open up to burst-size
// connections, but the pool must keep them warm: a second burst of the
// same size must not dial any new connection. Every stream of a burst
// reads its first row and then waits at a barrier for the others, so
// each burst holds exactly burst-size connections at once.
func TestTransportSurvivesParallelStreamBursts(t *testing.T) {
	url, conns, shutdown := startServer(t)
	defer shutdown()
	db, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const size = 8
	burst := func() {
		var wg, open sync.WaitGroup
		open.Add(size)
		for i := 0; i < size; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := db.QueryRows(`select n from nums order by n`)
				if err != nil {
					t.Error(err)
					open.Done()
					return
				}
				defer rows.Close()
				first := rows.Next()
				open.Done()
				open.Wait()
				if !first {
					t.Errorf("stream ended before its first row: %v", rows.Err())
					return
				}
				n := 1
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
				} else if n != numsRows {
					t.Errorf("streamed %d rows, want %d", n, numsRows)
				}
			}()
		}
		wg.Wait()
	}

	burst()
	after := conns.Load()
	if after > 9 { // session open + at most one conn per concurrent stream
		t.Fatalf("first burst dialled %d connections, want <= 9", after)
	}
	burst()
	if n := conns.Load(); n != after {
		t.Errorf("second burst dialled %d new connections, want 0 (pool reuse)", n-after)
	}
}

// Trace ids round-trip through the client: a configured id is sent on
// every request and the server's echo is observable; without one the
// server's generated id still lands in LastTraceID, and streaming
// Rows carry theirs.
func TestTraceIDRoundTrip(t *testing.T) {
	url, _, shutdown := startServer(t)
	defer shutdown()
	c, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(`select n from nums limit 1`); err != nil {
		t.Fatal(err)
	}
	gen := c.LastTraceID()
	if len(gen) != 16 {
		t.Errorf("generated trace id %q, want 16 hex digits", gen)
	}

	c.SetTraceID("trace-roundtrip-7")
	if _, err := c.Query(`select n from nums limit 1`); err != nil {
		t.Fatal(err)
	}
	if got := c.LastTraceID(); got != "trace-roundtrip-7" {
		t.Errorf("LastTraceID = %q, want the configured id echoed", got)
	}

	rows, err := c.QueryRows(`select n from nums order by n`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.TraceID(); got != "trace-roundtrip-7" {
		t.Errorf("stream TraceID = %q, want the configured id", got)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}
