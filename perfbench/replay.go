package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"maybms"
	"maybms/client"
	"maybms/internal/conf/approx"
	"maybms/internal/conf/exact"
	"maybms/internal/conf/sprout"
	"maybms/internal/db"
	"maybms/internal/exec/trace"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/sql"
	"maybms/internal/wire"
)

// recorder accumulates per-layer measurements of the traced run: a
// sum and a count per name, and whole samples for the paired
// differences whose median is reported. Safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	sum     map[string]float64
	n       map[string]float64
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{sum: map[string]float64{}, n: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) median(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.samples[name])
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.sum[name] += v
	r.n[name]++
	r.mu.Unlock()
}

func (r *recorder) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum[name]
}

// mean is the average of the values added under name; 0 for none.
func (r *recorder) mean(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n[name] == 0 {
		return 0
	}
	return r.sum[name] / r.n[name]
}

// ratio is total(num) / total(den); 0 when the denominator is.
func (r *recorder) ratio(num, den string) float64 {
	d := r.total(den)
	if d == 0 {
		return 0
	}
	return r.total(num) / d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedOps are the operators whose self time the traced run reports.
var tracedOps = []string{"Scan", "Filter", "Project", "HashJoin", "Product", "Aggregate", "Sort"}

// local runs requests in process through the engine's public entry
// points. With rec set it attaches a trace to every statement and
// records per-layer timings; the returned statement time never
// includes that bookkeeping.
type local struct {
	eng   *db.Database
	rec   *recorder
	led   *ledger
	accts int
	seed  int64
	// stmts and rows hold the traced statements and the answer of the
	// last request, for inspect once the request's timing is over.
	stmts []tracedStmt
	rows  *maybms.Rows
}

type tracedStmt struct {
	tr   *trace.Trace
	root plan.Node
}

// query parses and runs one query statement, inside txn when non-nil,
// and drains its cursor.
func (l *local) query(src string, txn *db.Txn) (*maybms.Rows, error) {
	t0 := time.Now()
	stmts, err := sql.ParseAll(src)
	parse := time.Since(t0)
	if err != nil {
		return nil, err
	}
	qs, ok := stmts[0].(*sql.QueryStmt)
	if len(stmts) != 1 || !ok {
		return nil, fmt.Errorf("not a single query: %s", src)
	}
	var tr *trace.Trace
	if l.rec != nil {
		tr = trace.New()
	}
	h0, m0, _ := l.eng.PlanCacheStats()
	t1 := time.Now()
	cur, root, err := l.eng.OpenQueryStmtMeta(qs, tr, db.QueryMeta{SQL: src, Txn: txn})
	open := time.Since(t1)
	if err != nil {
		return nil, err
	}
	h1, m1, _ := l.eng.PlanCacheStats()
	t2 := time.Now()
	rc := maybms.NewRowsCursor(cur)
	defer rc.Close()
	a := &maybms.Rows{Columns: rc.Columns, Certain: rc.Certain}
	for {
		page, err := rc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.Data = append(a.Data, page.Data...)
		a.Lineage = append(a.Lineage, page.Lineage...)
	}
	drain := time.Since(t2)
	if l.rec != nil {
		l.rec.add("sql.parse_us", float64(parse.Nanoseconds())/1e3)
		switch {
		case m1 > m0:
			l.rec.add("db.open_miss_ms", ms(open))
		case h1 > h0:
			l.rec.add("db.open_hit_ms", ms(open))
		}
		l.rec.add("exec.drain_ms", ms(drain))
		if root != nil {
			l.stmts = append(l.stmts, tracedStmt{tr, root})
		}
	}
	return a, nil
}

// exec parses and runs one write statement inside txn.
func (l *local) exec(src string, txn *db.Txn) error {
	t0 := time.Now()
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return err
	}
	if l.rec != nil {
		l.rec.add("sql.parse_us", float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var tr *trace.Trace
	if l.rec != nil {
		tr = trace.New()
	}
	_, _, err = l.eng.RunStatementMeta(stmts[0], tr, db.QueryMeta{SQL: src, Txn: txn})
	return err
}

// do runs o in process and checks its answer. stmt is the time the
// request took, bookkeeping excluded.
func (l *local) do(o *op) (stmt time.Duration, out outcome, err error) {
	l.stmts = l.stmts[:0]
	start := time.Now()
	var a *maybms.Rows
	switch o.kind {
	case kindTransfer:
		out, err = l.transfer(o)
		stmt = time.Since(start)
	case kindSumRead:
		a, err = l.query(o.sql, nil)
		stmt = time.Since(start)
		if err == nil {
			err = checkSumRead(a.Data, l.accts)
		}
	default:
		a, err = l.query(o.sql, nil)
		stmt = time.Since(start)
		if err == nil {
			out.miss, err = o.checkRows(a)
		}
	}
	l.rows = a
	return stmt, out, err
}

// inspect turns the traced request do just ran into per-layer metrics
// and replays its confidence computation. runReplay calls it after all
// three runs of the request, so the garbage it leaves lands on the
// next request's first run, whichever way that one goes.
func (l *local) inspect(o *op) error {
	aggSelf := l.recordOperators()
	if l.rows != nil && o.kind != kindSumRead {
		l.recordWire(l.rows)
	}
	if o.kind == kindConf || o.kind == kindAconf {
		return l.replayConf(o, l.rows, aggSelf)
	}
	return nil
}

// transfer runs a transfer transaction through db.Begin, the
// statement entry point and Txn.Commit, retrying conflicts.
func (l *local) transfer(o *op) (outcome, error) {
	var out outcome
	stmts := o.transferSQL()
	for {
		txn := l.eng.Begin()
		err := func() error {
			a, err := l.query(stmts[0], txn)
			if err != nil {
				return err
			}
			if err := checkTransferRead(a.Data); err != nil {
				return err
			}
			for _, s := range stmts[1:] {
				if err := l.exec(s, txn); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			txn.Rollback()
			return out, err
		}
		t := time.Now()
		err = txn.Commit()
		if l.rec != nil {
			l.rec.add("db.txn.commit_ms", ms(time.Since(t)))
		}
		if err == nil {
			l.led.commit(o)
			out.commits = 1
			return out, nil
		}
		if !db.IsConflict(err) || out.retries == maxRetries {
			return out, err
		}
		out.retries++
	}
}

// recordOperators turns the request's traced statements into operator
// self times, scan and semijoin counts. It returns the Aggregate self
// time of the last statement, in ms.
func (l *local) recordOperators() (aggSelf float64) {
	for _, st := range l.stmts {
		snap := st.tr.Snapshot(st.root)
		self := map[string]float64{}
		var scanned, pruned int64
		walkSelf(snap, self, &scanned, &pruned)
		for _, name := range tracedOps {
			l.rec.add("exec.op."+name+".self_ms", self[name])
		}
		l.rec.add("exec.semijoin_pruned", float64(pruned))
		l.rec.add("scan_rows", float64(scanned))
		l.rec.add("out_rows", float64(snap.Rows))
		aggSelf = self["Aggregate"]
	}
	return aggSelf
}

// walkSelf adds each operator's self time (its time minus its
// children's, never below 0) to self by operator name, in ms.
func walkSelf(s trace.OpSnap, self map[string]float64, scanned, pruned *int64) {
	child := int64(0)
	for _, c := range s.Children {
		child += c.TimeNanos
		walkSelf(c, self, scanned, pruned)
	}
	self[s.Op] += float64(max(s.TimeNanos-child, 0)) / 1e6
	if s.Op == "Scan" {
		*scanned += s.Rows
	}
	*pruned += s.Extras["semijoin_pruned"]
}

// recordWire times the server's response encoding of an answer.
func (l *local) recordWire(a *maybms.Rows) {
	t := time.Now()
	cells, err := wire.EncodeRows(a.Data)
	if err == nil {
		_, err = json.Marshal(wire.QueryResponse{Columns: a.Columns, Rows: cells, Certain: a.Certain, Lineage: a.Lineage})
	}
	if err != nil {
		return
	}
	l.rec.add("wire_us", float64(time.Since(t).Nanoseconds())/1e3)
	l.rec.add("wire_rows", float64(len(a.Data)))
}

// replayConf fetches the lineage of a confidence request with
// QueryRel, groups it into events, and times each step of the
// computation conf() performs: DNF.Simplify, SPROUT, the d-tree when
// SPROUT gives up, or Karp-Luby for aconf(). Exact results must equal
// the SQL answer bit for bit.
func (l *local) replayConf(o *op, sqlAns *maybms.Rows, aggSelf float64) error {
	rel, err := l.eng.QueryRel(o.lineage, false)
	if err != nil {
		return err
	}
	rows := maybms.RowsFromRel(rel)
	var keys []string
	events := map[string]lineage.DNF{}
	for i, t := range rel.Tuples {
		k := groupKey(rows.Data[i], o.groupCols)
		if _, ok := events[k]; !ok {
			keys = append(keys, k)
		}
		events[k] = append(events[k], t.Cond)
	}
	got := map[string]float64{}
	for _, row := range sqlAns.Data {
		if p, ok := row[len(row)-1].(float64); ok {
			got[groupKey(row, o.groupCols)] = p
		}
	}
	if len(got) != len(keys) {
		return fmt.Errorf("%w: replay of %s found %d events, SQL %d", errWrong, o.sql, len(keys), len(got))
	}
	store := l.eng.Store()
	var simplify, sproutTime, confTime, in, outClauses float64
	for _, k := range keys {
		d := events[k]
		t := time.Now()
		s := d.Simplify()
		simplify += ms(time.Since(t))
		in += float64(len(d))
		outClauses += float64(len(s))
		if o.kind == kindAconf {
			t = time.Now()
			_, st, err := approx.ConfSeededStats(d, store, o.eps, o.delta, l.seed, l.eng.Parallelism(), nil)
			took := ms(time.Since(t))
			if err != nil {
				return err
			}
			confTime += took
			l.rec.add("conf.approx_ms", took)
			l.rec.add("conf.approx_trials", float64(st.Trials))
			continue
		}
		t = time.Now()
		p, ok := sprout.Prob(d, store)
		took := ms(time.Since(t))
		confTime += took
		sproutTime += took
		l.rec.add("sprout_events", 1)
		if ok {
			l.rec.add("sprout_resolved", 1)
		} else {
			solver := exact.NewSolver(store)
			t = time.Now()
			p = solver.Prob(d)
			took := ms(time.Since(t))
			confTime += took
			l.rec.add("conf.exact_ms", took)
			l.rec.add("conf.exact_steps", float64(solver.Steps))
		}
		if p != got[k] {
			return fmt.Errorf("%w: replayed conf of %s = %v, SQL answered %v", errWrong, o.sql, p, got[k])
		}
	}
	if o.kind == kindConf {
		l.rec.add("conf.sprout_ms", sproutTime)
	}
	l.rec.add("lineage.simplify_ms", simplify)
	l.rec.add("lineage.clauses_in", in)
	l.rec.add("lineage.clauses_out", outClauses)
	l.rec.add("conf_replay_ms", confTime)
	l.rec.add("agg_self_ms", aggSelf)
	return nil
}

// replayOrders are the six orders of a request's three runs (0 HTTP,
// 1 untraced, 2 traced). Cycling through all of them makes each run
// follow each other run equally often, so the caches a run leaves warm
// for the next favour none of them.
var replayOrders = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// runReplay is the second phase of the traced run. Each client replays
// its sequence three ways per request, in the orders of replayOrders:
// over HTTP, in process untraced, and in process traced with per-layer
// timings. Paired times give the server overhead and the tracing
// overhead.
func runReplay(in *instance, seqs []sequence, dur time.Duration, led *ledger, accts int, seed int64, rec *recorder, t *tally) error {
	eng := in.db.Engine()
	var wg sync.WaitGroup
	errs := make([]error, len(seqs))
	deadline := time.Now().Add(dur)
	wg.Add(len(seqs))
	for i, seq := range seqs {
		go func() {
			defer wg.Done()
			c, err := client.Open(in.url)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			plain := &local{eng: eng, led: led, accts: accts, seed: seed}
			traced := &local{eng: eng, rec: rec, led: led, accts: accts, seed: seed}
			for n := 0; time.Now().Before(deadline); n++ {
				o := seq.next()
				var dHTTP, dPlain, dTraced time.Duration
				tracedOK := false
				for _, way := range replayOrders[n%len(replayOrders)] {
					switch way {
					case 0:
						s := time.Now()
						out, err := httpDo(c, o, led, accts)
						dHTTP = time.Since(s)
						t.record(o, out, err)
					case 1:
						d, out, err := plain.do(o)
						dPlain = d
						t.record(o, out, err)
					case 2:
						d, out, err := traced.do(o)
						dTraced, tracedOK = d, err == nil
						t.record(o, out, err)
					}
				}
				if tracedOK {
					if err := traced.inspect(o); err != nil {
						t.record(o, outcome{}, err)
					}
				}
				rec.sample("server.overhead_ms", ms(dHTTP-dPlain))
				rec.sample("trace.overhead_pct", 100*(float64(dTraced)/float64(dPlain)-1))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
