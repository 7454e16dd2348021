// Package wire defines the JSON protocol spoken between the MayBMS
// network server (internal/server) and the client package. Cell values
// are tagged with their type so results survive the round trip exactly
// — plain JSON numbers would collapse int64(1) and float64(1), and the
// client promises results identical to the embedded engine.
package wire

import "encoding/json"

// Request is the body of POST /v1/query and POST /v1/exec.
type Request struct {
	// SQL is a script of one or more semicolon-separated statements.
	SQL string `json:"sql"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	Columns []string `json:"columns"`
	Rows    Rows     `json:"rows"`
	Certain bool     `json:"certain"`
	// Lineage holds per-row condition renderings for uncertain
	// results; omitted for certain ones.
	Lineage []string `json:"lineage,omitempty"`
}

// ExecResponse is the body of a successful POST /v1/exec.
type ExecResponse struct {
	RowsAffected int    `json:"rows_affected"`
	Msg          string `json:"msg,omitempty"`
}

// SessionResponse is the body of a successful POST /v1/session.
type SessionResponse struct {
	Token       string  `json:"token"`
	IdleSeconds float64 `json:"idle_seconds"`
}

// ImportResponse is the body of a successful POST /v1/import.
type ImportResponse struct {
	Count int `json:"count"`
}

// ErrCodeCanceled marks an error caused by query cancellation (KILL
// or statement timeout), so clients can distinguish a killed query
// from an engine failure without parsing the message.
const ErrCodeCanceled = "canceled"

// ErrCodeConflict marks a serialization failure: the transaction's
// COMMIT lost first-committer-wins validation against a concurrent
// commit. The transaction is rolled back; the client should retry it
// from BEGIN.
const ErrCodeConflict = "conflict"

// ErrorResponse is the body of any non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code classifies the error; empty for ordinary failures,
	// ErrCodeCanceled when the query was killed or timed out,
	// ErrCodeConflict when a commit lost snapshot-isolation validation.
	Code string `json:"code,omitempty"`
}

// QueryInfo is one live query in a GET /v1/queries response.
type QueryInfo struct {
	ID             string  `json:"id"`
	SQL            string  `json:"sql"`
	Session        string  `json:"session,omitempty"`
	Engine         string  `json:"engine"`
	Start          string  `json:"start"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Parallelism    int     `json:"parallelism"`
	Canceled       bool    `json:"canceled,omitempty"`
	// Txn is the id of the transaction the statement runs inside; zero
	// for autocommit statements.
	Txn int64 `json:"txn,omitempty"`
	// Ops is the live per-operator tree (rows, batches, timings so
	// far) as rendered by the engine; absent until the statement
	// finishes planning or when live tracing is off. Kept raw so the
	// wire format does not pin the engine's snapshot shape.
	Ops json.RawMessage `json:"ops,omitempty"`
}

// QueriesResponse is the body of GET /v1/queries.
type QueriesResponse struct {
	Queries []QueryInfo `json:"queries"`
}

// KillResponse is the body of a successful DELETE /v1/queries/{id}.
type KillResponse struct {
	Killed bool `json:"killed"`
}

// EventInfo is one engine event in a GET /v1/events response; fields
// mirror the engine's event-log entries.
type EventInfo struct {
	Seq    int64   `json:"seq"`
	Time   string  `json:"time"`
	Type   string  `json:"type"`
	ID     string  `json:"id,omitempty"`
	Msg    string  `json:"msg,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
	Millis float64 `json:"ms,omitempty"`
}

// EventsResponse is the body of GET /v1/events.
type EventsResponse struct {
	Events []EventInfo `json:"events"`
}

// StreamFrame is one NDJSON line of a POST /v1/query/stream response.
// Exactly one field is set per frame: a header frame opens the stream,
// batch frames carry rows, and a done or error frame closes it. A
// stream that ends without a done or error frame was truncated and the
// client must not treat it as complete.
type StreamFrame struct {
	Header *StreamHeader `json:"header,omitempty"`
	Batch  *StreamBatch  `json:"batch,omitempty"`
	Done   *StreamDone   `json:"done,omitempty"`
	// Error reports a failure after streaming began (the HTTP status
	// is already committed at that point).
	Error string `json:"error,omitempty"`
	// ErrCode classifies Error; ErrCodeCanceled when the stream was
	// killed or timed out mid-flight.
	ErrCode string `json:"err_code,omitempty"`
}

// StreamHeader is the first frame of a streaming query response.
type StreamHeader struct {
	Columns []string `json:"columns"`
	// Certain reports whether the result is statically known
	// t-certain; uncertain streams carry per-row lineage per batch.
	Certain bool `json:"certain"`
}

// StreamBatch carries one batch of rows, encoded with the same tagged
// cells as QueryResponse so streamed rows are byte-identical to
// /v1/query rows for the same statement.
type StreamBatch struct {
	Rows    Rows     `json:"rows"`
	Lineage []string `json:"lineage,omitempty"`
}

// StreamDone is the final frame of a successful stream.
type StreamDone struct {
	// RowsStreamed is the total row count across all batches.
	RowsStreamed int64 `json:"rows_streamed"`
}

// SessionHeader carries the session token on authenticated requests.
const SessionHeader = "X-Maybms-Session"

// TraceHeader carries the query trace id. Clients may set it to
// propagate their own id; otherwise the server generates one. The
// server echoes the id on every response so a slow-query log line can
// be joined with the request that caused it.
const TraceHeader = "X-Maybms-Trace"
