// Package db ties the engine together: a catalog of stored tables over
// a shared world-set store, statement execution (DDL, DML, queries,
// optimistic snapshot-isolation transactions), and snapshot
// persistence. It is the layer the public maybms package and the shell
// wrap.
package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/conf"
	"maybms/internal/events"
	"maybms/internal/exec"
	"maybms/internal/exec/parallel"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/storage"
	"maybms/internal/storage/disk"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// Database is a MayBMS database instance: tables, world-set store, and
// executor. Concurrency control is single-writer / multi-reader with
// snapshot-isolated reads: each statement is classified before locking
// (sql.ReadOnly), writes — DDL, DML, transactions, and queries
// containing the uncertainty-introducing repair-key / pick-tuples
// operators (which allocate world-set variables) — take an exclusive
// lock, while read-only statements take the read lock only long enough
// to capture a Snapshot (an immutable copy-on-write view of tables and
// world-set store) and then execute against it with no lock held at
// all. Cursors therefore never pin a lock: a writer can commit while
// a streaming read is mid-iteration, and the read keeps observing its
// snapshot. The paper notes the purely relational representation makes
// concurrency control unremarkable; the classifier plus the snapshot
// seam is what keeps the confidence hot path out of the writer funnel.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*storage.Table
	store  *ws.Store
	exec   *exec.Executor

	// snapsOpen gauges live Snapshots (including those held by open
	// cursors); surfaced as maybms_snapshots_open.
	snapsOpen atomic.Int64

	// plans is the normalized-plan cache plus the trace-feedback
	// store; planGen is its invalidation generation, bumped by every
	// write-classified statement (see plancache.go). planGen is read
	// under d.mu (either mode) and bumped only under the exclusive
	// lock, so a generation captured together with a snapshot is
	// consistent with that snapshot's state.
	plans   *planCache
	planGen atomic.Int64

	// Transaction state. txnSeq numbers commits (written under the
	// exclusive lock, read at Begin under either mode); txnLog keeps
	// the published write claims of recent commits for
	// first-committer-wins validation, pruned to the oldest active
	// transaction's horizon (both touched only under d.mu exclusive).
	// txnMu guards the registry of open explicit transactions, the id
	// counter, and the embedded BEGIN default slot; lock order is
	// always d.mu → txnMu.
	txnSeq     int64
	txnLog     []commitRec
	txnMu      sync.Mutex
	activeTxns map[int64]*Txn
	nextTxnID  int64
	defaultTxn *Txn

	txnCommits   atomic.Int64
	txnConflicts atomic.Int64
	txnRollbacks atomic.Int64

	// durable is the WAL-backed store when the database was opened on
	// a data directory (Open with DataDir); nil for the memory engine.
	// Every write-classified statement ends with commitDurable.
	durable *disk.Store

	// reg is the live-query registry: every executing statement is
	// visible in it, with a cancellation flag the executor polls at
	// batch boundaries (SHOW/KILL, statement timeouts).
	reg *Registry
	// events is the engine event log: query lifecycle, checkpoints,
	// compactions, fsync stalls, session lifecycle.
	events *events.Log
	// liveTrace, when set (the default), attaches a lightweight trace
	// to every statement so the registry can report live per-operator
	// row counts. SetLiveTracing(false) turns the attachment off — the
	// registry and kill path still work, queries just list without an
	// operator tree. Exists so the overhead benchmark has a baseline.
	liveTrace atomic.Bool
	// fsyncHist and ckptHist time WAL fsyncs and checkpoints on the
	// disk engine (fixed-bucket histograms for /metrics).
	fsyncHist *obs.Histogram
	ckptHist  *obs.Histogram
}

// Result is the outcome of one statement.
type Result struct {
	// Rel is the result relation for queries; nil for DDL/DML.
	Rel *urel.Rel
	// RowsAffected counts modified rows for DML.
	RowsAffected int
	// Msg describes DDL outcomes.
	Msg string
}

// New creates an empty database. Intra-query parallelism defaults to
// GOMAXPROCS — results are byte-identical at every degree, so the
// default costs nothing but wall-clock time saved. Partition workers
// across all concurrent queries share one worker pool, also sized
// GOMAXPROCS by default, so q concurrent parallel queries run q×p
// fragments on at most pool-size goroutines.
func New() *Database {
	d := &Database{
		tables:     map[string]*storage.Table{},
		store:      ws.NewStore(),
		plans:      newPlanCache(),
		events:     events.NewLog(events.DefaultSize),
		fsyncHist:  obs.NewHistogram(obs.DurationBuckets),
		ckptHist:   obs.NewHistogram(obs.DurationBuckets),
		activeTxns: map[int64]*Txn{},
	}
	d.reg = newRegistry(d.events)
	d.liveTrace.Store(true)
	d.exec = exec.New(d, d.store)
	d.exec.Parallelism = runtime.GOMAXPROCS(0)
	d.exec.Stats = &parallel.Stats{}
	d.exec.Pool = parallel.NewPool(runtime.GOMAXPROCS(0))
	return d
}

// Registry exposes the live-query registry (SHOW/KILL surfaces).
func (d *Database) Registry() *Registry { return d.reg }

// Events exposes the engine event log.
func (d *Database) Events() *events.Log { return d.events }

// FsyncHist exposes the WAL fsync duration histogram (disk engine).
func (d *Database) FsyncHist() *obs.Histogram { return d.fsyncHist }

// CheckpointHist exposes the checkpoint duration histogram.
func (d *Database) CheckpointHist() *obs.Histogram { return d.ckptHist }

// SetStatementTimeout arms a deadline for every subsequently
// registered statement: on expiry the statement is canceled through
// the same cooperative flag a KILL uses. Zero disables (the default).
func (d *Database) SetStatementTimeout(t time.Duration) { d.reg.SetTimeout(t) }

// SetLiveTracing toggles the always-on per-statement trace that gives
// the registry live operator row counts. On by default; turning it
// off keeps registration and kill working but lists queries without
// an operator tree. The overhead benchmark's baseline.
func (d *Database) SetLiveTracing(on bool) { d.liveTrace.Store(on) }

// LiveTracing reports whether statements get an always-on trace.
func (d *Database) LiveTracing() bool { return d.liveTrace.Load() }

// Store exposes the world-set store (read access for marginals).
func (d *Database) Store() *ws.Store { return d.store }

// SetConfMethod overrides the strategy used by conf().
func (d *Database) SetConfMethod(m conf.Method) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exec.ConfMethod = m
}

// SetSeed installs seed as the root of Monte Carlo estimation: every
// subsequent aconf() derives its own strand-partitioned trial stream
// from it, so approximate results are reproducible and independent of
// the degree of parallelism.
func (d *Database) SetSeed(seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exec.Reseed(seed)
}

// SetRng injects the random source driving Monte Carlo estimation.
// Unlike SetSeed, the caller's source is used as-is and sequentially:
// aconf() falls back to the single-stream sampler, and unless the
// source is internally synchronised, concurrent aconf() queries will
// race on it. Prefer SetSeed. A nil r restores the seeded default.
func (d *Database) SetRng(r *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r == nil {
		d.exec.Reseed(1)
		return
	}
	d.exec.Rng = r
	d.exec.SeedValid = false
}

// SetParallelism sets the degree of intra-query parallelism: how many
// partitions a parallelisable pipeline fragment is split into, and how
// many workers evaluate aconf()'s sampling schedule. n < 1 (and n ==
// 1) executes serially. Results are byte-identical at every setting.
func (d *Database) SetParallelism(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exec.Parallelism = n
}

// Parallelism reports the configured degree of intra-query
// parallelism.
func (d *Database) Parallelism() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.exec.Parallelism
}

// ParallelStats exposes the engine's exchange counters (shared by the
// live executor and every snapshot executor), for metrics endpoints.
func (d *Database) ParallelStats() *parallel.Stats { return d.exec.Stats }

// SetWorkerPool replaces the engine's shared worker pool with one of
// capacity n (0 restores the GOMAXPROCS default): the cap on partition
// worker goroutines across every concurrent exchange and partitioned
// breaker. Statements already executing keep the pool they started
// with. The cap bounds goroutines, never progress: fragments the pool
// cannot reach run inline on their query's own goroutine.
func (d *Database) SetWorkerPool(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exec.Pool = parallel.NewPool(n)
}

// WorkerPool exposes the engine's shared worker pool (its gauges feed
// the metrics endpoint).
func (d *Database) WorkerPool() *parallel.Pool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.exec.Pool
}

// SetMinPartitionRows overrides the smallest table worth partitioning
// (0 restores the default). Benchmarks and tests lower it to force
// parallel plans over small corpora.
func (d *Database) SetMinPartitionRows(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.exec.MinPartitionRows = n
}

// TableNames lists the stored tables in sorted order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SchemaOf returns the schema of a stored table, taking the read lock
// (unlike the plan.Catalog methods, which run inside a statement's
// lock scope).
func (d *Database) SchemaOf(name string) (*schema.Schema, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.TableSchema(name)
}

// TableSchema implements plan.Catalog.
func (d *Database) TableSchema(name string) (*schema.Schema, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t.Schema(), nil
}

// TableRel implements plan.Catalog.
func (d *Database) TableRel(name string) (*urel.Rel, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t.ToRel(), nil
}

// TableCertain implements plan.Catalog: the system catalog
// distinguishes U-relations from standard relational tables.
func (d *Database) TableCertain(name string) (bool, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return false, fmt.Errorf("db: table %q does not exist", name)
	}
	return t.Certain(), nil
}

// TableBatches implements exec.BatchCatalog: a streaming scan that
// pulls tuples straight out of the heap, batch by batch, without
// materialising the table. Like the other catalog methods it runs
// inside a statement's lock scope; the returned iterator is valid only
// while that lock is held. Cursors never use this live catalog — they
// stream from a Snapshot, whose iterators need no lock.
func (d *Database) TableBatches(name string, size int, sieve storage.Sieve) (urel.Iterator, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t.Batches(nil, size, sieve), nil
}

// TablePartBatches implements exec.PartitionCatalog over live storage:
// a streaming scan of one contiguous row-range shard. Like
// TableBatches it is valid only inside the statement's lock scope —
// the executor's exchange pulls the shards from worker goroutines, but
// always strictly within the statement call that holds the lock.
func (d *Database) TablePartBatches(name string, part, nparts, size int, sieve storage.Sieve) (urel.Iterator, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t.PartBatches(nil, part, nparts, size, sieve), nil
}

// TableLen implements exec.PartitionCatalog.
func (d *Database) TableLen(name string) (int, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("db: table %q does not exist", name)
	}
	return t.Len(), nil
}

// Run parses and executes a script of one or more statements,
// returning the result of the last one. Each statement registers in
// the live-query registry with the script's source text.
func (d *Database) Run(src string) (*Result, error) {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		r, _, err := d.RunStatementMeta(s, nil, QueryMeta{SQL: src})
		if err != nil {
			return nil, err
		}
		last = r
	}
	if last == nil {
		return &Result{Msg: "empty script"}, nil
	}
	return last, nil
}

// RunStatement executes a parsed statement. Read-only statements
// (per sql.ReadOnly) execute against a point-in-time Snapshot,
// concurrently with each other and with at most a brief read-lock
// acquisition; everything else is serialised behind the exclusive
// lock.
func (d *Database) RunStatement(s sql.Statement) (*Result, error) {
	res, _, err := d.RunStatementMeta(s, nil, QueryMeta{})
	return res, err
}

// explain plans the query through the optimizer and plan cache
// (against the live database under the exclusive lock, or a snapshot
// on the read path) and renders the optimized outline plus the cache
// outcome the real execution would have had.
func explain(s *sql.ExplainStmt, p planner) (*Result, error) {
	n, _, fp, hit, err := p.planFor(s.Query)
	if err != nil {
		return nil, err
	}
	return planResult(plan.Explain(n) + cacheLine(fp, hit)), nil
}

// query plans and runs a query through the streaming executor,
// draining the iterator pipeline into a materialised result. Running
// inside the statement's lock scope, the drain is complete before the
// lock is released. A LIMIT near the root stops pulling early, so the
// full input is never computed.
func (d *Database) query(q sql.Query) (*urel.Rel, error) {
	rel, _, err := d.queryPlanned(q, nil)
	return rel, err
}

// queryPlanned is query, also returning the plan root (for traced
// callers that render the analyzed tree). The plan goes through the
// optimizer and the normalized-plan cache like the read path's; the
// caller holds the exclusive lock, whose entry bump means lookups here
// always replan — correct, since this statement may be mid-mutation.
// lq (when non-nil) receives the plan root once planning completes, so
// the live-query registry can snapshot the operator tree mid-run.
func (d *Database) queryPlanned(q sql.Query, lq *LiveQuery) (*urel.Rel, plan.Node, error) {
	n, args, _, _, err := d.planQuery(q, d, d, d.planGen.Load())
	if err != nil {
		return nil, nil, err
	}
	lq.setRoot(n)
	d.exec.Args = args
	defer func() { d.exec.Args = nil }()
	it, err := d.exec.Open(n)
	if err != nil {
		return nil, n, err
	}
	rel, err := urel.Drain(it)
	return rel, n, err
}

// QueryRel plans and executes a single query statement through either
// the streaming engine (materialised=false) or the recursive
// reference path (materialised=true), under the appropriate lock.
// The two must return identical rows; tests and benchmarks compare
// them.
func (d *Database) QueryRel(src string, materialised bool) (*urel.Rel, error) {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("db: QueryRel requires a single statement, got %d", len(stmts))
	}
	qs, ok := stmts[0].(*sql.QueryStmt)
	if !ok {
		return nil, fmt.Errorf("db: QueryRel requires a query statement, got %T", stmts[0])
	}
	if sql.ReadOnly(qs) {
		snap := d.SnapshotFor(qs)
		defer snap.Close()
		if !materialised {
			return snap.Query(qs.Query)
		}
		n, err := plan.Build(qs.Query, snap)
		if err != nil {
			return nil, err
		}
		return snap.exec.Run(n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var rel *urel.Rel
	if !materialised {
		rel, err = d.query(qs.Query)
	} else {
		var n plan.Node
		n, err = plan.Build(qs.Query, d)
		if err == nil {
			rel, err = d.exec.Run(n)
		}
	}
	// A write-classified query (repair-key / pick-tuples) may have
	// allocated world-set variables; end its WAL batch.
	if cerr := d.commitDurable(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return rel, nil
}
