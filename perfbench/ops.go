package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"maybms"
	"maybms/client"
)

// opKind says how a request is sent and how its answer is checked.
type opKind int

const (
	// kindQuery is sent to /v1/query; its rows must equal the reference
	// byte for byte.
	kindQuery opKind = iota
	// kindStream is a kindQuery read through /v1/query/stream.
	kindStream
	// kindConf is an exact conf() query; the traced run also replays
	// its confidence computation layer by layer.
	kindConf
	// kindAconf is an aconf(ε,δ) query; each estimate must lie within
	// ε of the exact reference, violations counted against δ.
	kindAconf
	// kindTransfer is BEGIN; read a; a -= 1; b += 1; COMMIT, retried
	// from BEGIN on a conflict until it commits.
	kindTransfer
	// kindSumRead is an autocommit aggregate over acct; every snapshot
	// must hold all accounts with balances summing to 0.
	kindSumRead
)

// op is one request of a workload.
type op struct {
	kind opKind
	sql  string
	// refSQL computes the reference answer in process: sql itself, or
	// the exact conf() form of an aconf() request.
	refSQL string
	// lineage selects the rows whose conditions form the confidence
	// events of a conf/aconf request, its groupCols GROUP BY columns
	// first.
	lineage   string
	groupCols int
	eps       float64
	delta     float64
	// from and to are the accounts of a transfer.
	from, to int

	ref  string             // canonical reference answer
	refP map[string]float64 // exact probability per group key (kindAconf)
}

// transferSQL is the statement list of a transfer transaction between
// BEGIN and COMMIT.
func (o *op) transferSQL() [3]string {
	return [3]string{
		fmt.Sprintf("select v from acct where k = %d", o.from),
		fmt.Sprintf("update acct set v = v - 1 where k = %d", o.from),
		fmt.Sprintf("update acct set v = v + 1 where k = %d", o.to),
	}
}

const sumReadSQL = "select count(*), sum(v) from acct"

// sequence is one client's fixed request sequence.
type sequence interface{ next() *op }

// poolSeq cycles through a request pool, reshuffling it with the
// client's own generator before every pass.
type poolSeq struct {
	pool  []*op
	order []int
	i     int
	r     *rand.Rand
}

func newPoolSeq(pool []*op, r *rand.Rand) *poolSeq {
	return &poolSeq{pool: pool, i: len(pool), r: r}
}

func (s *poolSeq) next() *op {
	if s.i == len(s.pool) {
		s.order = s.r.Perm(len(s.pool))
		s.i = 0
	}
	o := s.pool[s.order[s.i]]
	s.i++
	return o
}

// txnSeq is a txn_rmw client: three transfers between Zipf(1.1)-skewed
// accounts, then one autocommit aggregate read, repeated.
type txnSeq struct {
	z     *rand.Zipf
	i     int
	sumOp *op
}

func newTxnSeq(r *rand.Rand, accts int) *txnSeq {
	return &txnSeq{z: rand.NewZipf(r, 1.1, 1, uint64(accts-1)), sumOp: &op{kind: kindSumRead, sql: sumReadSQL}}
}

func (s *txnSeq) next() *op {
	s.i++
	if s.i%4 == 0 {
		return s.sumOp
	}
	a := int(s.z.Uint64())
	b := int(s.z.Uint64())
	for b == a {
		b = int(s.z.Uint64())
	}
	return &op{kind: kindTransfer, from: a, to: b}
}

// canon renders a result canonically: columns, then every cell with
// its type and full precision, then its lineage. Two answers are
// equal exactly when their renderings are.
func canon(rows *maybms.Rows) string {
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns, "\x1f"))
	for i, row := range rows.Data {
		b.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				b.WriteByte('\x1f')
			}
			writeCell(&b, v)
		}
		if i < len(rows.Lineage) && rows.Lineage[i] != "" {
			b.WriteString("\x1e" + rows.Lineage[i])
		}
	}
	return b.String()
}

func writeCell(b *strings.Builder, v any) {
	switch v := v.(type) {
	case nil:
		b.WriteString("null")
	case int64:
		b.WriteString("i" + strconv.FormatInt(v, 10))
	case float64:
		b.WriteString("f" + strconv.FormatFloat(v, 'g', -1, 64))
	case string:
		b.WriteString("s" + strconv.Quote(v))
	case bool:
		b.WriteString("b" + strconv.FormatBool(v))
	default:
		fmt.Fprintf(b, "?%T", v)
	}
}

// groupKey renders the first n cells of a row as a map key.
func groupKey(row []any, n int) string {
	var b strings.Builder
	for _, v := range row[:n] {
		writeCell(&b, v)
		b.WriteByte('\x1f')
	}
	return b.String()
}

// setReference records o's reference answer, computed in process.
func (o *op) setReference(rows *maybms.Rows) {
	if o.kind != kindAconf {
		o.ref = canon(rows)
		return
	}
	o.refP = map[string]float64{}
	for _, row := range rows.Data {
		o.refP[groupKey(row, o.groupCols)] = row[len(row)-1].(float64)
	}
}

// errWrong marks a wrong answer, as opposed to a failed request.
var errWrong = errors.New("wrong answer")

// checkRows compares a query's answer with o's reference. An aconf
// answer that misses its ε bound is not wrong by itself; it is
// returned as a miss and counted against δ.
func (o *op) checkRows(rows *maybms.Rows) (miss int, err error) {
	if o.kind != kindAconf {
		if canon(rows) != o.ref {
			return 0, fmt.Errorf("%w: %s", errWrong, o.sql)
		}
		return 0, nil
	}
	if len(rows.Data) != len(o.refP) {
		return 0, fmt.Errorf("%w: %s: %d rows, want %d", errWrong, o.sql, len(rows.Data), len(o.refP))
	}
	for _, row := range rows.Data {
		p, ok := o.refP[groupKey(row, o.groupCols)]
		est, isFloat := row[len(row)-1].(float64)
		if !ok || !isFloat {
			return 0, fmt.Errorf("%w: %s: unexpected row %v", errWrong, o.sql, row)
		}
		if math.Abs(est-p) > o.eps*p {
			miss++
		}
	}
	return miss, nil
}

// ledger is the client-side record of acknowledged transfers, checked
// against the database after it is reopened.
type ledger struct {
	mu  sync.Mutex
	bal map[int]int64
}

func newLedger() *ledger { return &ledger{bal: map[int]int64{}} }

func (l *ledger) commit(o *op) {
	l.mu.Lock()
	l.bal[o.from]--
	l.bal[o.to]++
	l.mu.Unlock()
}

// checkSumRead checks the invariant every snapshot of acct keeps.
func checkSumRead(data [][]any, accts int) error {
	if len(data) != 1 || len(data[0]) != 2 || data[0][0] != int64(accts) || data[0][1] != int64(0) {
		return fmt.Errorf("%w: %s = %v, want [[%d 0]]", errWrong, sumReadSQL, data, accts)
	}
	return nil
}

// checkTransferRead checks the in-transaction balance read: one row
// holding an integer.
func checkTransferRead(data [][]any) error {
	if len(data) != 1 || len(data[0]) != 1 {
		return fmt.Errorf("%w: balance read returned %v", errWrong, data)
	}
	if _, ok := data[0][0].(int64); !ok {
		return fmt.Errorf("%w: balance read returned %v", errWrong, data)
	}
	return nil
}

// maxRetries bounds the retries of one transfer; reaching it is a
// failure, not a livelock.
const maxRetries = 1000

// outcome is what one request did.
type outcome struct {
	retries int // conflicts retried before the commit
	trips   int // HTTP round trips
	miss    int // aconf estimates outside ε
	commits int // acknowledged commits
}

// httpDo sends o through the public client and checks the answer.
func httpDo(c *client.DB, o *op, led *ledger, accts int) (outcome, error) {
	var out outcome
	switch o.kind {
	case kindStream:
		out.trips = 1
		cur, err := c.QueryRows(o.sql)
		if err != nil {
			return out, err
		}
		defer cur.Close()
		rows := &maybms.Rows{Columns: cur.Columns()}
		for cur.Next() {
			rows.Data = append(rows.Data, cur.Row())
			rows.Lineage = append(rows.Lineage, cur.RowLineage())
		}
		if err := cur.Err(); err != nil {
			return out, err
		}
		_, err = o.checkRows(rows)
		return out, err
	case kindSumRead:
		out.trips = 1
		rows, err := c.Query(o.sql)
		if err != nil {
			return out, err
		}
		return out, checkSumRead(rows.Data, accts)
	case kindTransfer:
		stmts := o.transferSQL()
		for {
			err := httpTransfer(c, stmts, &out.trips)
			if err == nil {
				led.commit(o)
				out.commits = 1
				return out, nil
			}
			if !client.IsConflict(err) || out.retries == maxRetries {
				return out, err
			}
			out.retries++
		}
	default:
		out.trips = 1
		rows, err := c.Query(o.sql)
		if err != nil {
			return out, err
		}
		out.miss, err = o.checkRows(rows)
		return out, err
	}
}

// httpTransfer runs one attempt of a transfer transaction.
func httpTransfer(c *client.DB, stmts [3]string, trips *int) error {
	*trips++
	if _, err := c.Exec("begin"); err != nil {
		return err
	}
	err := func() error {
		*trips++
		rows, err := c.Query(stmts[0])
		if err != nil {
			return err
		}
		if err := checkTransferRead(rows.Data); err != nil {
			return err
		}
		for _, s := range stmts[1:] {
			*trips++
			if _, err := c.Exec(s); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		*trips++
		c.Exec("rollback") // best effort: the error being reported is the first one
		return err
	}
	*trips++
	_, err = c.Exec("commit")
	return err
}
