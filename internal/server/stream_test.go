package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"maybms/client"
	"maybms/internal/wire"
)

// TestStreamByteIdenticalToQuery is the acceptance criterion: a
// streaming HTTP query returns byte-identical rows to /v1/query for
// the same statement, certain and uncertain alike.
func TestStreamByteIdenticalToQuery(t *testing.T) {
	base, mdb, _ := startServer(t, Options{})
	mdb.MustExec(quickstartSetup)
	mdb.MustExec(`create table nums (n int, label text)`)
	var stmt strings.Builder
	stmt.WriteString("insert into nums values ")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			stmt.WriteByte(',')
		}
		fmt.Fprintf(&stmt, "(%d, 'n%d')", i, i)
	}
	mdb.MustExec(stmt.String())

	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := []string{
		`select n, label from nums where n < 2500 order by n`, // spans multiple batches
		`select * from forecast`,                              // uncertain: lineage per row
		`select outlook, conf() p from forecast group by outlook order by outlook`,
		`select n from nums limit 5 offset 7`,
		`select n from nums where n > 999999`, // empty result
	}
	for _, q := range queries {
		rows, err := c.Query(q)
		if err != nil {
			t.Fatalf("%q: query: %v", q, err)
		}
		st, err := c.QueryRows(q)
		if err != nil {
			t.Fatalf("%q: stream: %v", q, err)
		}
		var got [][]interface{}
		var lineage []string
		for st.Next() {
			row := append([]interface{}(nil), st.Row()...)
			got = append(got, row)
			lineage = append(lineage, st.RowLineage())
		}
		if err := st.Err(); err != nil {
			t.Fatalf("%q: stream err: %v", q, err)
		}
		st.Close()
		if len(got) != rows.Len() {
			t.Fatalf("%q: %d streamed rows vs %d", q, len(got), rows.Len())
		}
		if !reflect.DeepEqual(st.Columns(), rows.Columns) {
			t.Fatalf("%q: columns %v vs %v", q, st.Columns(), rows.Columns)
		}
		for i := range got {
			// Byte-identical: both sides re-encoded through the same
			// tagged-cell wire form must match exactly.
			a, err1 := json.Marshal(mustCells(t, got[i]))
			b, err2 := json.Marshal(mustCells(t, rows.Data[i]))
			if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
				t.Fatalf("%q row %d: %s vs %s (%v %v)", q, i, a, b, err1, err2)
			}
			if !rows.Certain && rows.Lineage[i] != lineage[i] {
				t.Fatalf("%q row %d: lineage %q vs %q", q, i, lineage[i], rows.Lineage[i])
			}
		}
	}
}

// mustCells wraps one row for a tagged encoding, so int 1 and float 1
// still differ when two rows are compared as bytes.
func mustCells(t *testing.T, row []interface{}) wire.Rows {
	t.Helper()
	cells, err := wire.EncodeRows([][]interface{}{row})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// The bytes of /v1/query bodies and stream frames are pinned: these
// were written by the reflection codec that wire.Rows replaced, and
// cover the sign of zero, float format boundaries, non-finite floats,
// integers above 2^53, HTML escapes, U+2028 and invalid UTF-8.
func TestQueryAndStreamBytesGolden(t *testing.T) {
	base, mdb, _ := startServer(t, Options{})
	mdb.MustExec("create table q (i int, f float, s text, b bool); insert into q values " +
		"(9007199254740993, -0.0, '<a&b> \"q\" \\ \u00e9 \u2028 \t', true), " +
		"(-9223372036854775807, 0.000001, 'x\xffy', false), " +
		"(null, 1e21, '', null), (7, 1e308 * 10, 'z', true), (8, 1.5e-7, 'w', false), (9, 123456.789, 'v', true)")
	for _, tc := range []struct{ path, want string }{
		{"/v1/query", "{\"columns\":[\"i\",\"f\",\"s\",\"b\",\"column5\"],\"rows\":[[{\"i\":9007199254740993},{\"f\":-0},{\"s\":\"\\u003ca\\u0026b\\u003e \\\"q\\\" \\\\ \u00e9 \\u2028 \\t\"},{\"b\":true},{\"f\":0}],[{\"i\":-9223372036854775807},{\"f\":0.000001},{\"s\":\"x\\ufffdy\"},{\"b\":false},{\"f\":-0.000009999999999999999}],[null,{\"f\":1e+21},{\"s\":\"\"},null,{\"f\":-1e+22}],[{\"i\":7},{\"nf\":\"+inf\"},{\"s\":\"z\"},{\"b\":true},{\"nf\":\"-inf\"}],[{\"i\":8},{\"f\":1.5e-7},{\"s\":\"w\"},{\"b\":false},{\"f\":-0.0000015}],[{\"i\":9},{\"f\":123456.789},{\"s\":\"v\"},{\"b\":true},{\"f\":-1234567.8900000001}]],\"certain\":true}\n"},
		{"/v1/query/stream", "{\"header\":{\"columns\":[\"i\",\"f\",\"s\",\"b\",\"column5\"],\"certain\":true}}\n{\"batch\":{\"rows\":[[{\"i\":9007199254740993},{\"f\":-0},{\"s\":\"\\u003ca\\u0026b\\u003e \\\"q\\\" \\\\ \u00e9 \\u2028 \\t\"},{\"b\":true},{\"f\":0}],[{\"i\":-9223372036854775807},{\"f\":0.000001},{\"s\":\"x\\ufffdy\"},{\"b\":false},{\"f\":-0.000009999999999999999}],[null,{\"f\":1e+21},{\"s\":\"\"},null,{\"f\":-1e+22}],[{\"i\":7},{\"nf\":\"+inf\"},{\"s\":\"z\"},{\"b\":true},{\"nf\":\"-inf\"}],[{\"i\":8},{\"f\":1.5e-7},{\"s\":\"w\"},{\"b\":false},{\"f\":-0.0000015}],[{\"i\":9},{\"f\":123456.789},{\"s\":\"v\"},{\"b\":true},{\"f\":-1234567.8900000001}]]}}\n{\"done\":{\"rows_streamed\":6}}\n"},
	} {
		body, _ := json.Marshal(wire.Request{SQL: `select i, f, s, b, f * -10 from q`})
		resp, err := http.Post(base+tc.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %v", tc.path, resp.Status, err)
		}
		if string(data) != tc.want {
			t.Errorf("%s body changed:\n got %q\nwant %q", tc.path, data, tc.want)
		}
	}
}

func TestStreamWriteQueryAdmission(t *testing.T) {
	base, mdb, _ := startServer(t, Options{})
	mdb.MustExec(`create table weather (outlook text, w float);
		insert into weather values ('sun', 6), ('rain', 3), ('snow', 1)`)
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// repair key is a write: the stream endpoint must run it under the
	// server's write admission and then stream the stored result.
	st, err := c.QueryRows(`select conf() from (repair key in weather weight by w) r where outlook <> 'snow'`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatalf("no rows: %v", st.Err())
	}
	if p := st.Row()[0].(float64); p < 0.89 || p > 0.91 {
		t.Fatalf("conf %v, want 0.9", p)
	}
}

func TestStreamErrorsAndMetrics(t *testing.T) {
	base, mdb, srv := startServer(t, Options{})
	mdb.MustExec(`create table t (a int); insert into t values (1), (2), (3)`)
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.QueryRows(`select * from missing`); err == nil {
		t.Error("unknown table accepted")
	} else if ce, ok := err.(*client.Error); !ok || ce.Status != http.StatusBadRequest {
		t.Errorf("error %v", err)
	}
	if _, err := c.QueryRows(`select 1; select 2`); err == nil {
		t.Error("script accepted on stream endpoint")
	}
	if _, err := c.QueryRows(`insert into t values (4)`); err == nil {
		t.Error("DML accepted on stream endpoint")
	}

	st, err := c.QueryRows(`select a from t order by a`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st.Next() {
		n++
	}
	if err := st.Err(); err != nil || n != 3 {
		t.Fatalf("streamed %d rows, err %v", n, err)
	}
	if st.RowsStreamed() != 3 {
		t.Fatalf("trailer rows %d", st.RowsStreamed())
	}
	st.Close()

	if got := srv.rowsStreamed.Load(); got != 3 {
		t.Errorf("rows_streamed_total %d, want 3", got)
	}
	if got := srv.streamsTotal.Load(); got < 4 {
		t.Errorf("stream_queries_total %d, want >= 4", got)
	}
	// And the counters surface on /metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if !strings.Contains(body, "maybms_rows_streamed_total 3") ||
		!strings.Contains(body, "maybms_stream_queries_total") {
		t.Errorf("metrics missing stream counters:\n%s", body)
	}
	// Every cursor above was drained or closed, so no snapshot is
	// still pinned.
	if !strings.Contains(body, "maybms_snapshots_open 0") {
		t.Errorf("metrics missing maybms_snapshots_open gauge:\n%s", body)
	}
}

// TestStreamFirstBatchBeforeCompletion verifies per-batch flushing:
// with a result spanning several batches, the client must see the
// first rows while the stream is still open (i.e. before the done
// frame arrives).
func TestStreamFirstBatchBeforeCompletion(t *testing.T) {
	base, mdb, _ := startServer(t, Options{})
	mdb.MustExec(`create table nums (n int)`)
	var stmt strings.Builder
	stmt.WriteString("insert into nums values ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			stmt.WriteByte(',')
		}
		fmt.Fprintf(&stmt, "(%d)", i)
	}
	mdb.MustExec(stmt.String())
	c, err := client.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.QueryRows(`select n from nums`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatalf("no first row: %v", st.Err())
	}
	// The first row is available while the stream has delivered no
	// trailer yet (RowsStreamed is only set by the done frame).
	if st.RowsStreamed() != 0 {
		t.Error("stream already complete after one row; batches are not incremental")
	}
	n := 1
	for st.Next() {
		n++
	}
	if n != 5000 || st.Err() != nil {
		t.Fatalf("streamed %d rows, err %v", n, st.Err())
	}
}

// TestStreamDeadlineClearedForKeepAlive is the regression for the
// poisoned keep-alive connection: the stream handler sets a per-batch
// write deadline on the underlying connection, and used to leave the
// last one armed after the final frame — past the handler's return,
// where it could cut off the response's terminating-chunk flush and
// with it keep-alive reuse of the connection. Two requests on one raw
// connection, with a pause longer than the stream write timeout in
// between, must both succeed.
func TestStreamDeadlineClearedForKeepAlive(t *testing.T) {
	const timeout = 150 * time.Millisecond
	base, mdb, _ := startServer(t, Options{StreamWriteTimeout: timeout})
	mdb.MustExec(`create table nums (n int); insert into nums values (1), (2), (3)`)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	send := func(path, sql string) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"sql":%q}`, sql)
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: maybms\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			path, len(body), body)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: reading response: %v (stream write deadline poisoned the connection?)", path, err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("%s: draining response: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", path, resp.Status)
		}
		return resp
	}

	send("/v1/query/stream", "select n from nums order by n")
	// Let the last per-batch deadline expire; a handler that forgot to
	// clear it has now armed a bomb under the idle connection.
	time.Sleep(3 * timeout)
	send("/v1/query", "select n from nums limit 1")
}
