// Package client is a thin network client for the MayBMS server
// (internal/server): client.DB mirrors the embedded maybms.DB API —
// Query, Exec, QueryFloat, ImportCSV — over HTTP/JSON, so switching a
// program between the embedded engine and a shared server is a
// one-line change.
//
//	db, err := client.Open("http://localhost:8094")
//	defer db.Close()
//	rows, err := db.Query(`select face, conf() p from coins group by face`)
//
// Open creates a server session, so transactions (BEGIN/COMMIT/
// ROLLBACK through Exec) are scoped to this client. Transactions run
// under optimistic snapshot isolation: each sees the database as of
// its BEGIN plus its own writes, any number of clients can hold one
// concurrently, and a COMMIT that lost first-committer-wins
// validation against a concurrent commit fails with an Error for
// which IsConflict reports true — retry the whole transaction from
// BEGIN (RunTxn does this automatically). A DB is safe for concurrent
// use; statements from concurrent goroutines are parallelised by the
// server when they are read-only, and each read-only statement or
// stream observes a consistent point-in-time snapshot of committed
// state without ever blocking a writer.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"maybms"
	"maybms/internal/wire"
)

// DB is a connection to a MayBMS server. Create with Open.
type DB struct {
	base  string
	http  *http.Client
	token string

	// traceMu guards the trace-id fields: nextTrace is sent as the
	// X-Maybms-Trace header on the following requests, lastTrace is the
	// id the server echoed on the most recent response.
	traceMu   sync.Mutex
	nextTrace string
	lastTrace string
}

// SetTraceID sets the trace id sent with subsequent requests, so
// client-side logs can be joined with the server's slow-query log and
// metrics. Empty (the default) lets the server generate one per
// request.
func (d *DB) SetTraceID(id string) {
	d.traceMu.Lock()
	d.nextTrace = id
	d.traceMu.Unlock()
}

// LastTraceID reports the trace id the server attached to the most
// recent response ("" before the first request).
func (d *DB) LastTraceID() string {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	return d.lastTrace
}

// stampTrace adds the outbound trace header, when configured.
func (d *DB) stampTrace(req *http.Request) {
	d.traceMu.Lock()
	if d.nextTrace != "" {
		req.Header.Set(wire.TraceHeader, d.nextTrace)
	}
	d.traceMu.Unlock()
}

// noteTrace records the trace id echoed on a response.
func (d *DB) noteTrace(resp *http.Response) {
	if id := resp.Header.Get(wire.TraceHeader); id != "" {
		d.traceMu.Lock()
		d.lastTrace = id
		d.traceMu.Unlock()
	}
}

// Option configures Open.
type Option func(*DB)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports, test doubles).
func WithHTTPClient(c *http.Client) Option {
	return func(d *DB) { d.http = c }
}

// newTransport builds the client's default transport, tuned for the
// server's workload shape: bursts of parallel streaming queries open
// many connections at once, and net/http's default of 2 idle
// connections per host would close all but two the moment the burst
// drains — the next burst then pays full connection setup again.
// Generous idle limits keep the pool warm between bursts.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
}

// Open connects to a MayBMS server at baseURL (e.g.
// "http://localhost:8094") and opens a session.
func Open(baseURL string, opts ...Option) (*DB, error) {
	d := &DB{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 60 * time.Second, Transport: newTransport()},
	}
	for _, o := range opts {
		o(d)
	}
	var sr wire.SessionResponse
	if err := d.call("POST", "/v1/session", nil, "", &sr); err != nil {
		return nil, err
	}
	d.token = sr.Token
	return d, nil
}

// Close releases the server session and closes the client's idle
// connections. The DB is unusable afterwards.
func (d *DB) Close() error {
	err := d.call("DELETE", "/v1/session", nil, "", &struct{}{})
	d.http.CloseIdleConnections()
	return err
}

// Error is a server-reported failure.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Msg is the server's error message.
	Msg string
	// Code classifies the error; wire.ErrCodeCanceled when the query
	// was killed or timed out. Empty for ordinary failures.
	Code string
}

func (e *Error) Error() string { return e.Msg }

// IsCanceled reports whether err is a server error caused by query
// cancellation — a KILL (DELETE /v1/queries/{id}) or the server's
// statement timeout.
func IsCanceled(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Code == wire.ErrCodeCanceled
}

// IsConflict reports whether err is a serialization failure: the
// transaction's COMMIT lost first-committer-wins validation against a
// concurrent commit. The transaction is already rolled back; retry it
// from BEGIN.
func IsConflict(err error) bool {
	var se *Error
	return errors.As(err, &se) && se.Code == wire.ErrCodeConflict
}

// RunTxn runs fn inside a transaction, retrying the whole transaction
// (up to a few attempts) when COMMIT hits a snapshot-isolation
// conflict. fn receives the same DB and issues ordinary statements;
// it must be safe to re-run from scratch, and must not COMMIT or
// ROLLBACK itself. Any error from fn rolls the transaction back and
// is returned as-is; a conflict that survives every retry is returned
// as the final attempt's conflict error.
func (d *DB) RunTxn(fn func(d *DB) error) error {
	const attempts = 5
	var err error
	for i := 0; i < attempts; i++ {
		if _, err = d.Exec("begin"); err != nil {
			return err
		}
		if err = fn(d); err != nil {
			d.Exec("rollback") // best effort; the server rolls back on close/expiry anyway
			return err
		}
		if _, err = d.Exec("commit"); err == nil || !IsConflict(err) {
			return err
		}
	}
	return err
}

// call performs one HTTP round trip with JSON bodies.
func (d *DB) call(method, path string, body io.Reader, contentType string, out interface{}) error {
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %v", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if d.token != "" {
		req.Header.Set(wire.SessionHeader, d.token)
	}
	d.stampTrace(req)
	resp, err := d.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %v", err)
	}
	defer resp.Body.Close()
	d.noteTrace(resp)
	if resp.StatusCode != http.StatusOK {
		var er wire.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			return &Error{Status: resp.StatusCode, Msg: er.Error, Code: er.Code}
		}
		return &Error{Status: resp.StatusCode, Msg: fmt.Sprintf("client: server returned %s", resp.Status)}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: bad response: %v", err)
	}
	// The transport reuses a connection only once its response is read
	// to EOF; a chunked body still holds the value's trailing newline
	// and the closing chunk. The value is complete, so a failed drain
	// only costs the connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

func (d *DB) post(path, src string, out interface{}) error {
	body, err := json.Marshal(wire.Request{SQL: src})
	if err != nil {
		return fmt.Errorf("client: %v", err)
	}
	return d.call("POST", path, bytes.NewReader(body), "application/json", out)
}

// Query runs a script whose last statement returns rows and
// materialises the result, exactly as the embedded maybms.DB.Query
// does.
func (d *DB) Query(src string) (*maybms.Rows, error) {
	var qr wire.QueryResponse
	if err := d.post("/v1/query", src, &qr); err != nil {
		return nil, err
	}
	rows := &maybms.Rows{
		Columns: qr.Columns,
		Data:    qr.Rows,
		Certain: qr.Certain,
		Lineage: qr.Lineage,
	}
	if !rows.Certain && rows.Lineage == nil {
		rows.Lineage = make([]string, len(rows.Data))
	}
	return rows, nil
}

// MustQuery is Query that panics on error; for examples and tests.
func (d *DB) MustQuery(src string) *maybms.Rows {
	rows, err := d.Query(src)
	if err != nil {
		panic(fmt.Sprintf("client: %v", err))
	}
	return rows
}

// Exec runs a script and discards any rows, returning the last
// statement's summary.
func (d *DB) Exec(src string) (maybms.Result, error) {
	var er wire.ExecResponse
	if err := d.post("/v1/exec", src, &er); err != nil {
		return maybms.Result{}, err
	}
	return maybms.Result{RowsAffected: er.RowsAffected, Msg: er.Msg}, nil
}

// MustExec is Exec that panics on error; for examples and tests.
func (d *DB) MustExec(src string) maybms.Result {
	r, err := d.Exec(src)
	if err != nil {
		panic(fmt.Sprintf("client: %v", err))
	}
	return r
}

// QueryFloat runs a query expected to return a single numeric cell.
func (d *DB) QueryFloat(src string) (float64, error) {
	rows, err := d.Query(src)
	if err != nil {
		return 0, err
	}
	return rows.Float()
}

// Rows is a streaming cursor over a query result, read row by row off
// the server's NDJSON /v1/query/stream response: the first rows are
// available before the server finishes the scan, and closing the
// cursor early abandons the rest of the stream. The server streams a
// read-only query from a point-in-time snapshot, so holding a Rows
// open — even while stalled — never blocks writers on the server;
// reading slowly just keeps the snapshot's memory pinned until Close
// or the server's per-batch write deadline. Use it like database/sql
// rows:
//
//	rows, err := db.QueryRows(`select * from big where a > 10`)
//	defer rows.Close()
//	for rows.Next() {
//	    cells := rows.Row()
//	    ...
//	}
//	err = rows.Err()
//
// A Rows is not safe for concurrent use.
type Rows struct {
	columns []string
	certain bool
	body    io.ReadCloser
	dec     *json.Decoder

	rows    [][]interface{}
	lineage []string
	traceID string
	idx     int // current row within the batch (idx-1 after Next)
	done    bool
	total   int64
	err     error
}

// QueryRows runs a single query statement on the server's streaming
// endpoint and returns a row cursor over the result.
func (d *DB) QueryRows(src string) (*Rows, error) {
	body, err := json.Marshal(wire.Request{SQL: src})
	if err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	req, err := http.NewRequest("POST", d.base+"/v1/query/stream", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if d.token != "" {
		req.Header.Set(wire.SessionHeader, d.token)
	}
	d.stampTrace(req)
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	d.noteTrace(resp)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var er wire.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			return nil, &Error{Status: resp.StatusCode, Msg: er.Error, Code: er.Code}
		}
		return nil, &Error{Status: resp.StatusCode, Msg: fmt.Sprintf("client: server returned %s", resp.Status)}
	}
	r := &Rows{body: resp.Body, dec: json.NewDecoder(resp.Body), traceID: resp.Header.Get(wire.TraceHeader)}
	var f wire.StreamFrame
	if err := r.dec.Decode(&f); err != nil || f.Header == nil {
		resp.Body.Close()
		if err == nil {
			err = fmt.Errorf("client: stream did not start with a header frame")
		}
		return nil, fmt.Errorf("client: bad stream: %v", err)
	}
	r.columns = f.Header.Columns
	r.certain = f.Header.Certain
	return r, nil
}

// Columns are the output column names.
func (r *Rows) Columns() []string { return r.columns }

// Certain reports whether the result is statically known t-certain.
func (r *Rows) Certain() bool { return r.certain }

// TraceID is the id the server attached to this stream, for joining
// with the server's slow-query log and metrics.
func (r *Rows) TraceID() string { return r.traceID }

// Next advances to the next row, fetching batches from the stream as
// needed. It returns false at the end of the result or on error;
// check Err afterwards.
func (r *Rows) Next() bool {
	if r.err != nil || r.done {
		return false
	}
	for r.idx >= len(r.rows) {
		var f wire.StreamFrame
		if err := r.dec.Decode(&f); err != nil {
			r.fail(fmt.Errorf("client: stream truncated: %v", err))
			return false
		}
		switch {
		case f.Batch != nil:
			r.rows = f.Batch.Rows
			r.lineage = f.Batch.Lineage
			r.idx = 0
		case f.Done != nil:
			r.total = f.Done.RowsStreamed
			r.done = true
			// The transport reuses a connection only once its response
			// is read to EOF, and the stream's closing chunk can arrive
			// after the Done frame; the rows are complete, so a failed
			// drain only costs the connection.
			_, _ = io.Copy(io.Discard, r.body)
			r.body.Close()
			return false
		case f.Error != "":
			r.fail(&Error{Status: http.StatusOK, Msg: f.Error, Code: f.ErrCode})
			return false
		default:
			r.fail(fmt.Errorf("client: bad stream frame"))
			return false
		}
	}
	r.idx++
	return true
}

// Row returns the current row's cells (valid after Next returned
// true): nil, int64, float64, string, or bool — the same dynamic
// types maybms.Rows uses.
func (r *Rows) Row() []interface{} { return r.rows[r.idx-1] }

// RowLineage returns the current row's world-set descriptor rendering
// ("" for unconditional tuples or certain results).
func (r *Rows) RowLineage() string {
	if r.lineage == nil || r.idx-1 >= len(r.lineage) {
		return ""
	}
	return r.lineage[r.idx-1]
}

// RowsStreamed reports the server's total row count, available after
// Next returned false with a nil Err.
func (r *Rows) RowsStreamed() int64 { return r.total }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

func (r *Rows) fail(err error) {
	r.err = err
	r.done = true
	r.body.Close()
}

// Close abandons the cursor; safe to call at any point and more than
// once. Closing mid-stream drops the connection, which tells the
// server to stop producing rows.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	r.done = true
	return r.body.Close()
}

// LiveQuery is one currently executing statement on the server, as
// reported by GET /v1/queries.
type LiveQuery struct {
	// ID is the query id — the X-Maybms-Trace id when the request
	// carried one — and the handle Kill takes.
	ID string
	// SQL is the statement's source text.
	SQL string
	// Session is the owning session token (empty for anonymous or
	// embedded statements).
	Session string
	// Engine is the server's storage engine ("memory" or "disk").
	Engine string
	// Start is the statement's registration time (RFC 3339).
	Start string
	// ElapsedSeconds is how long the statement has been running.
	ElapsedSeconds float64
	// Parallelism is the engine's degree for this statement.
	Parallelism int
	// Canceled reports a kill or timeout already delivered but not yet
	// observed by the statement.
	Canceled bool
	// Txn is the id of the transaction the statement runs inside; zero
	// for autocommit statements.
	Txn int64
	// Ops is the live per-operator tree (row counts, batches, timings
	// so far) as raw JSON; nil until the statement finishes planning or
	// when live tracing is off on the server.
	Ops json.RawMessage
}

// Queries lists the statements currently executing on the server,
// oldest first — each with its live per-operator row counts, so two
// calls mid-query show the counters advancing.
func (d *DB) Queries() ([]LiveQuery, error) {
	var qr wire.QueriesResponse
	if err := d.call("GET", "/v1/queries", nil, "", &qr); err != nil {
		return nil, err
	}
	out := make([]LiveQuery, len(qr.Queries))
	for i, q := range qr.Queries {
		out[i] = LiveQuery{
			ID:             q.ID,
			SQL:            q.SQL,
			Session:        q.Session,
			Engine:         q.Engine,
			Start:          q.Start,
			ElapsedSeconds: q.ElapsedSeconds,
			Parallelism:    q.Parallelism,
			Canceled:       q.Canceled,
			Txn:            q.Txn,
			Ops:            q.Ops,
		}
	}
	return out, nil
}

// Kill cancels the live query with the given id (see Queries). The
// kill is cooperative: the statement unwinds at its next batch
// boundary and its own request fails with an Error for which
// IsCanceled reports true. Killing an unknown id returns an Error
// with Status 404.
func (d *DB) Kill(id string) error {
	var kr wire.KillResponse
	return d.call("DELETE", "/v1/queries/"+url.PathEscape(id), nil, "", &kr)
}

// Event is one entry of the server's engine event log (query
// lifecycle, checkpoints, compactions, WAL fsync stalls, session
// lifecycle).
type Event struct {
	Seq    int64
	Time   string
	Type   string
	ID     string
	Msg    string
	Bytes  int64
	Millis float64
}

// Events returns the server's retained engine events, oldest first.
func (d *DB) Events() ([]Event, error) {
	var er wire.EventsResponse
	if err := d.call("GET", "/v1/events", nil, "", &er); err != nil {
		return nil, err
	}
	out := make([]Event, len(er.Events))
	for i, e := range er.Events {
		out[i] = Event{Seq: e.Seq, Time: e.Time, Type: e.Type, ID: e.ID, Msg: e.Msg, Bytes: e.Bytes, Millis: e.Millis}
	}
	return out, nil
}

// ImportCSV bulk-loads CSV data (with a header row naming the
// columns) into an existing table, streaming the file to the server
// in one request. It returns the number of rows loaded.
func (d *DB) ImportCSV(table string, r io.Reader) (int, error) {
	var ir wire.ImportResponse
	path := "/v1/import?table=" + url.QueryEscape(table)
	if err := d.call("POST", path, r, "text/csv", &ir); err != nil {
		return 0, err
	}
	return ir.Count, nil
}
