package server

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"maybms/client"
)

// buildBigTable loads n rows into table big plus a repair-key table u
// over it, through the client.
func buildBigTable(t *testing.T, c *client.DB, n int) {
	t.Helper()
	c.MustExec(`create table big (id int, grp int, val int, w float)`)
	var b strings.Builder
	b.WriteString(`insert into big values `)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %g)", i, i%64, (i*37)%211, 1.0+float64(i%5))
	}
	c.MustExec(b.String())
	c.MustExec(`create table u as select id, grp, val from (repair key grp in big weight by w) r`)
}

// settle polls cond until it holds or the deadline passes.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not settle within 10s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitVisible polls /v1/queries until a live query running src (or
// any query, when src is empty) appears, returning its id.
func waitVisible(t *testing.T, c *client.DB, src string) string {
	t.Helper()
	var id string
	settle(t, "query visibility in /v1/queries", func() bool {
		qs, err := c.Queries()
		if err != nil {
			t.Fatalf("Queries: %v", err)
		}
		for _, q := range qs {
			if src == "" || strings.Contains(q.SQL, src) {
				id = q.ID
				return true
			}
		}
		return false
	})
	return id
}

// drainedGauges asserts every live-execution gauge returned to zero
// after a kill: registered queries, open snapshots, busy partition
// workers, busy pool workers.
func drainedGauges(t *testing.T, s *Server) {
	t.Helper()
	settle(t, "maybms_queries_active", func() bool { return s.eng.Registry().Active() == 0 })
	settle(t, "maybms_snapshots_open", func() bool { return s.eng.SnapshotsOpen() == 0 })
	settle(t, "maybms_parallel_workers_busy", func() bool { return s.eng.ParallelStats().WorkersBusy.Load() == 0 })
	settle(t, "maybms_pool_workers_busy", func() bool { return s.eng.WorkerPool().Busy() == 0 })
}

// TestKillMidStreamCursor kills a streaming query between batches: the
// stream must end with a typed canceled error (not a clean done
// frame), the cursor's snapshot and worker gauges must drain to zero,
// and the kill must be recorded in the event log and kill counter.
func TestKillMidStreamCursor(t *testing.T) {
	base, _, srv := startServer(t, Options{})
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buildBigTable(t, c, 20000)

	goroutinesBefore := runtime.NumGoroutine()

	// A cross join streams far more rows than any transport buffer
	// holds, so the query is still executing when the kill lands.
	rows, err := c.QueryRows(`select b1.id, b2.id from big b1, big b2 where b1.val <= b2.val`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("stream produced no rows before kill: %v", rows.Err())
	}

	// Watch and kill from a second client, closed before goroutines are
	// counted: the connections it needs while the stream holds c's are
	// kept alive in its pool, and an idle pooled connection is not
	// something the kill left behind.
	ctl, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	id := waitVisible(t, ctl, "from big b1")
	if err := ctl.Kill(id); err != nil {
		t.Fatalf("Kill(%s): %v", id, err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !client.IsCanceled(err) {
		t.Fatalf("killed stream error = %v, want a typed canceled error", err)
	}

	if got := srv.eng.Registry().Killed(); got != 1 {
		t.Errorf("Killed() = %d, want 1", got)
	}
	var killEvents int
	evs, err := ctl.Events()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.Type == "query_kill" && e.ID == id {
			killEvents++
		}
	}
	if killEvents != 1 {
		t.Errorf("event log has %d query_kill events for %s, want 1", killEvents, id)
	}

	drainedGauges(t, srv)
	ctl.Close()
	settle(t, "goroutine count", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+2
	})

	// The engine stays fully usable after the kill.
	v, err := c.QueryFloat(`select count(*) from big`)
	if err != nil || v != 20000 {
		t.Fatalf("post-kill query = %v, %v; want 20000", v, err)
	}
}

// TestKillPoolSaturatedParallelGroupBy kills a Monte Carlo GROUP BY
// aggregation running on a parallelism-4 engine over a 2-worker pool:
// the sampling loops and partition workers must all observe the flag,
// the request must fail with a typed canceled error, and the worker
// gauges must drain to zero afterwards.
func TestKillPoolSaturatedParallelGroupBy(t *testing.T) {
	base, _, srv := startServer(t, Options{Parallelism: 4, WorkerPool: 2})
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buildBigTable(t, c, 4000)

	// Tight aconf bounds demand an enormous trial count — unkillable,
	// this query runs for minutes; killed, it unwinds at the next
	// sampling-poll boundary.
	const slow = `select grp % 8, aconf(0.005, 0.001) from u group by grp % 8`
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(slow)
		done <- err
	}()

	killer, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer killer.Close()
	id := waitVisible(t, killer, "aconf(0.005")
	if err := killer.Kill(id); err != nil {
		t.Fatalf("Kill(%s): %v", id, err)
	}

	select {
	case err := <-done:
		if !client.IsCanceled(err) {
			t.Fatalf("killed query error = %v, want a typed canceled error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed query did not unwind within 30s")
	}
	drainedGauges(t, srv)
}

// TestStatementTimeout runs a slow sampling query under a server
// statement timeout: it must fail with the same typed canceled error
// as an explicit kill, bump the timeout counter, and leave no gauge
// behind.
func TestStatementTimeout(t *testing.T) {
	base, _, srv := startServer(t, Options{StatementTimeout: 150 * time.Millisecond})
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buildBigTable(t, c, 4000)

	_, err = c.Query(`select grp % 8, aconf(0.005, 0.001) from u group by grp % 8`)
	if !client.IsCanceled(err) {
		t.Fatalf("timed-out query error = %v, want a typed canceled error", err)
	}
	if got := srv.eng.Registry().TimedOut(); got != 1 {
		t.Errorf("TimedOut() = %d, want 1", got)
	}
	if got := srv.eng.Registry().Killed(); got != 0 {
		t.Errorf("Killed() = %d, want 0 (timeout is not a kill)", got)
	}
	drainedGauges(t, srv)
}

// TestLiveQueriesShowOperatorProgress pins the live introspection
// payload: a running query's /v1/queries row carries its SQL, session
// and a non-empty per-operator tree once planning completes.
func TestLiveQueriesShowOperatorProgress(t *testing.T) {
	base, _, _ := startServer(t, Options{})
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buildBigTable(t, c, 20000)

	rows, err := c.QueryRows(`select b1.id, b2.id from big b1, big b2 where b1.val <= b2.val`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("stream produced no rows: %v", rows.Err())
	}

	var got client.LiveQuery
	settle(t, "live query with operator tree", func() bool {
		qs, err := c.Queries()
		if err != nil {
			t.Fatalf("Queries: %v", err)
		}
		for _, q := range qs {
			if strings.Contains(q.SQL, "from big b1") && len(q.Ops) > 0 {
				got = q
				return true
			}
		}
		return false
	})
	if got.Session == "" {
		t.Error("live query row has no session")
	}
	if got.Engine != "memory" {
		t.Errorf("live query engine = %q, want memory", got.Engine)
	}
	if !strings.Contains(string(got.Ops), "rows") {
		t.Errorf("live operator tree carries no row counters: %s", got.Ops)
	}
	rows.Close()
	settle(t, "registry drain after close", func() bool {
		qs, err := c.Queries()
		return err == nil && len(qs) == 0
	})
}
