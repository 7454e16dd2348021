package db

// Optimistic snapshot-isolation transactions. A transaction begins by
// capturing the same point-in-time Snapshot a read-only statement
// uses — frozen tables plus a frozen world-set prefix — and then
// executes every statement against a private write layer over it:
// table writes land in per-table storage.Overlay buffers (base rows
// keep their ids, appends take ids beyond the base extent), DDL in
// created/dropped bookkeeping, and repair-key / pick-tuples allocate
// world-set variables in a private ws overlay whose IDs start at the
// snapshot's variable count. Nothing a transaction does is visible to
// any other session, touches the WAL, or takes the database lock:
// statements inside a transaction serialise only on the transaction's
// own mutex.
//
// Commit is where concurrency control happens, first-committer-wins
// over write sets: under the exclusive database lock the transaction's
// claims (rows updated/deleted per table, per-table insert flags,
// whole-table claims for DDL, read dependencies of statements whose
// effects were computed from other tables) are validated against the
// claims of every transaction that committed after this one began. A
// row-level overlap, a whole-table claim, or a committed write under
// one of our read dependencies aborts with a typed ConflictError; two
// inserters into the same table, or writers of disjoint rows, both
// commit. A valid transaction then publishes atomically: overlay
// variables append to the live store (conditions buffered in the
// overlay are remapped past the variables interleaved commits
// allocated), overlay diffs replay onto the live tables, created
// tables materialise, dropped tables go away — all inside one
// continuous exclusive-lock hold, so on the disk engine the WAL batch
// the replay emits is ended by exactly one commit record and a crash
// either recovers the whole transaction or none of it.
//
// Autocommit rides the same machinery: every write-classified
// statement outside a transaction runs as an implicit single-statement
// transaction built and committed under one exclusive-lock hold
// (validation is skipped — nothing can interleave), which makes every
// statement all-or-nothing: a failed statement's partial effects die
// with its overlay instead of landing in live tables.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"maybms/internal/events"
	"maybms/internal/exec"
	"maybms/internal/exec/trace"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/storage"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// ConflictError reports a first-committer-wins validation failure: a
// transaction that committed after this one began already wrote state
// this one read or wrote. The transaction has been rolled back; the
// standard client response is to retry it from the top.
type ConflictError struct {
	// Txn is the id of the aborted transaction.
	Txn int64
	// Table names the first table the conflict was detected on.
	Table string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("db: transaction %d conflicts with a concurrent commit on table %q; retry", e.Txn, e.Table)
}

// IsConflict reports whether err is (or wraps) a serialization
// conflict, the retryable outcome of optimistic validation.
func IsConflict(err error) bool {
	var ce *ConflictError
	return errors.As(err, &ce)
}

// tableClaim is one table's entry in a transaction's claim set.
type tableClaim struct {
	// rows are the base-table rows the transaction updated or deleted.
	rows map[storage.RowID]bool
	// insert marks that the transaction appended rows. Two inserters
	// never conflict: appends commute.
	insert bool
	// full claims the whole table: CREATE, DROP.
	full bool
	// read marks a whole-table read dependency — the statement's
	// effects were computed from this table's contents (INSERT ...
	// SELECT sources, repair-key inputs, UPDATE/DELETE subqueries).
	// Validation-only; never published.
	read bool
}

// commitRec is one committed transaction's published write claims,
// kept (pruned to the oldest active transaction's horizon) so later
// committers can validate against it.
type commitRec struct {
	seq    int64
	claims map[string]tableClaim
}

// Txn is an open optimistic transaction. It is created by
// Database.Begin (or implicitly per autocommit statement), runs
// statements via Database.RunStatementMeta with QueryMeta.Txn set (or
// the embedded BEGIN default slot), and ends with exactly one Commit
// or Rollback. A Txn is safe for use from one goroutine at a time;
// its mutex serialises statements against commit/rollback.
type Txn struct {
	db *Database
	// id identifies the transaction (events, registry, errors); 0 for
	// autocommit statements.
	id int64
	// startSeq is the commit-log position the snapshot corresponds to:
	// commits with seq > startSeq happened after we began.
	startSeq int64
	// snap is the point-in-time view every statement reads through.
	snap *Snapshot
	// wsBase is the snapshot's variable count: overlay variables take
	// ids from wsBase up and are remapped at commit.
	wsBase int
	// wsOver is the private world-set overlay repair-key / pick-tuples
	// allocate into.
	wsOver *ws.Store
	// exec is the transaction's forked executor, bound to the txn
	// catalog and the ws overlay.
	exec *exec.Executor

	mu   sync.Mutex
	done bool
	// autocommit marks the implicit single-statement transaction: not
	// registered, never validated (it runs entirely under the exclusive
	// lock), uncounted by the txn metrics.
	autocommit bool
	// commitSeq is the commit-log position this transaction published
	// at; zero until commit, and zero forever for transactions that
	// published nothing. It totally orders effectful commits — the
	// concurrency harness replays committed histories in this order.
	commitSeq int64

	// tables are the transaction's writable facades: overlay-backed
	// tables for base tables it wrote, private heaps for tables it
	// created. Reads check here first, then dropped, then the snapshot.
	tables map[string]*storage.Table
	// overs are the storage overlays backing facades of base tables.
	overs map[string]*storage.Overlay
	// created / dropped record in-transaction DDL by lower-cased name.
	created map[string]bool
	dropped map[string]bool
	// reads are whole-table read dependencies; readAll is the
	// conservative fallback when the analysis cannot account for a
	// statement's sources.
	reads   map[string]bool
	readAll bool
}

// Begin opens an explicit transaction. The read lock is held only to
// capture the snapshot and register the transaction; the returned Txn
// runs statements with no database lock at all.
func (d *Database) Begin() *Txn {
	d.mu.RLock()
	t := d.beginLocked(false)
	d.mu.RUnlock()
	return t
}

// beginLocked builds a transaction; the caller holds d.mu (read for
// explicit Begin, write for autocommit). Registration happens here,
// under the same lock hold that read txnSeq, so commit-log pruning
// (exclusive lock) can never discard records a just-begun transaction
// still needs.
func (d *Database) beginLocked(autocommit bool) *Txn {
	snap := d.snapshotLocked(nil)
	t := &Txn{
		db:         d,
		startSeq:   d.txnSeq,
		snap:       snap,
		wsBase:     snap.store.NumVars(),
		wsOver:     snap.store.Overlay(),
		autocommit: autocommit,
		tables:     map[string]*storage.Table{},
		overs:      map[string]*storage.Overlay{},
		created:    map[string]bool{},
		dropped:    map[string]bool{},
		reads:      map[string]bool{},
	}
	t.exec = d.exec.Fork(t, t.wsOver)
	if !autocommit {
		d.txnMu.Lock()
		d.nextTxnID++
		t.id = d.nextTxnID
		d.activeTxns[t.id] = t
		d.txnMu.Unlock()
		d.events.Emit(events.Event{Type: events.TxnBegin, ID: t.idString()})
	}
	return t
}

// ID returns the transaction id (0 for autocommit).
func (t *Txn) ID() int64 { return t.id }

func (t *Txn) idString() string { return strconv.FormatInt(t.id, 10) }

func (t *Txn) errDone() error {
	return fmt.Errorf("db: transaction %d is no longer active", t.id)
}

// release drops the transaction's resources: the snapshot (and its
// copy-on-write pins and gauge slot) and its registry entry.
// Idempotent — snapshot Close is a CAS, map deletes are no-ops.
func (t *Txn) release() {
	t.snap.Close()
	if t.autocommit {
		return
	}
	d := t.db
	d.txnMu.Lock()
	delete(d.activeTxns, t.id)
	if d.defaultTxn == t {
		d.defaultTxn = nil
	}
	d.txnMu.Unlock()
}

// Rollback abandons the transaction: the write overlays, created
// tables, and overlay variables are simply dropped. Erroring on a
// finished transaction (double ROLLBACK, ROLLBACK after COMMIT) keeps
// session layers honest.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.errDone()
	}
	t.done = true
	t.release()
	if !t.autocommit {
		t.db.txnRollbacks.Add(1)
		t.db.events.Emit(events.Event{Type: events.TxnRollback, ID: t.idString()})
	}
	return nil
}

// Commit validates and publishes the transaction under the exclusive
// database lock. On a serialization conflict the transaction is
// rolled back and a *ConflictError returned (IsConflict); on success
// every buffered effect is live and, on the disk engine, durable
// behind one WAL commit record.
func (t *Txn) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.errDone()
	}
	d := t.db
	d.mu.Lock()
	err := t.commitLocked()
	d.mu.Unlock()
	return err
}

// commitLocked is the commit protocol; the caller holds t.mu and d.mu
// (exclusive).
func (t *Txn) commitLocked() error {
	d := t.db
	t.done = true
	claims := t.buildClaims()
	if !t.autocommit {
		if table, ok := t.conflictsLocked(claims); ok {
			t.release()
			d.pruneTxnLogLocked()
			d.txnConflicts.Add(1)
			d.events.Emit(events.Event{Type: events.TxnConflict, ID: t.idString(), Msg: table})
			return &ConflictError{Txn: t.id, Table: table}
		}
	}
	pub := publishable(claims)
	newVars := t.wsOver.NumVars() - t.wsBase
	if len(pub) == 0 && newVars == 0 {
		// Nothing to publish: a read-only (or effect-free) transaction
		// commits without touching live state or the WAL.
		t.release()
		d.pruneTxnLogLocked()
		if !t.autocommit {
			d.txnCommits.Add(1)
			d.events.Emit(events.Event{Type: events.TxnCommit, ID: t.idString()})
		}
		return nil
	}
	// Live state changes from here on: cached plans are stale.
	d.bumpPlanGen()
	// Publish overlay variables. Interleaved commits may have grown the
	// live store past our base, so overlay ids shift by delta; every
	// buffered condition literal at or beyond wsBase is remapped. For
	// autocommit delta is always 0 — the statement ran entirely under
	// this exclusive hold — so conditions in its returned result remain
	// valid as-is.
	delta := d.store.NumVars() - t.wsBase
	err := func() error {
		for _, probs := range t.wsOver.DomainsFrom(t.wsBase) {
			if _, verr := d.store.NewVar(probs); verr != nil {
				return fmt.Errorf("db: commit: republishing world-set variable: %v", verr)
			}
		}
		return nil
	}()
	// Close our own snapshot before replaying the diffs: the replay
	// mutates live tables in place, and an open snapshot of our own
	// would force a pointless copy-on-write of every touched array. The
	// overlay diff accessors read only overlay-owned state, so they
	// remain valid after release.
	t.snap.Close()
	if err == nil {
		err = t.applyLocked(delta)
	}
	// End the WAL batch even when the replay failed partway: effects
	// already applied to the heap mirrors were logged, and the commit
	// record is what keeps durable state converged with memory.
	if d.durable != nil {
		if cerr := d.durable.Commit(); cerr != nil && err == nil {
			err = cerr
		}
	}
	d.txnSeq++
	t.commitSeq = d.txnSeq
	if len(pub) > 0 {
		d.txnLog = append(d.txnLog, commitRec{seq: d.txnSeq, claims: pub})
	}
	t.release()
	d.pruneTxnLogLocked()
	if !t.autocommit {
		d.txnCommits.Add(1)
		d.events.Emit(events.Event{Type: events.TxnCommit, ID: t.idString()})
	}
	return err
}

// conflictsLocked validates the transaction's claims against every
// commit that happened after it began (d.mu exclusive held). Returns
// the first conflicting table name.
func (t *Txn) conflictsLocked(claims map[string]tableClaim) (string, bool) {
	log := t.db.txnLog
	for i := len(log) - 1; i >= 0; i-- {
		rec := log[i]
		if rec.seq <= t.startSeq {
			break
		}
		for name, theirs := range rec.claims {
			ours, ok := claims[name]
			if !ok {
				continue
			}
			if claimsOverlap(ours, theirs) {
				return name, true
			}
		}
	}
	return "", false
}

// claimsOverlap decides whether our claim on a table conflicts with a
// committed transaction's published (write-only) claim on it.
func claimsOverlap(ours, theirs tableClaim) bool {
	if ours.full || theirs.full {
		return true
	}
	if ours.read {
		// They committed a write to a table our effects were computed
		// from: our buffered writes are based on stale reads.
		return true
	}
	// Row sets conflict only on a shared row; inserts commute with
	// everything except full-table claims.
	for id := range ours.rows {
		if theirs.rows[id] {
			return true
		}
	}
	return false
}

// buildClaims assembles the transaction's claim set from its read
// bookkeeping, DDL sets, and overlay write sets.
func (t *Txn) buildClaims() map[string]tableClaim {
	claims := map[string]tableClaim{}
	if t.readAll {
		for n := range t.snap.tables {
			c := claims[n]
			c.read = true
			claims[n] = c
		}
	} else {
		for n := range t.reads {
			c := claims[n]
			c.read = true
			claims[n] = c
		}
	}
	for n := range t.dropped {
		c := claims[n]
		c.full = true
		claims[n] = c
	}
	for n := range t.created {
		// Creating a name claims it fully: two creators of the same
		// table cannot both win.
		c := claims[n]
		c.full = true
		claims[n] = c
	}
	for n, ov := range t.overs {
		c := claims[n]
		for _, id := range ov.Touched() {
			if c.rows == nil {
				c.rows = map[storage.RowID]bool{}
			}
			c.rows[id] = true
		}
		if ov.Inserted() {
			c.insert = true
		}
		claims[n] = c
	}
	return claims
}

// publishable strips validation-only read flags and drops claims with
// no write component; what remains is what the commit log keeps.
func publishable(claims map[string]tableClaim) map[string]tableClaim {
	out := map[string]tableClaim{}
	for n, c := range claims {
		c.read = false
		if len(c.rows) == 0 && !c.insert && !c.full {
			continue
		}
		out[n] = c
	}
	return out
}

// pruneTxnLogLocked discards commit records no active transaction can
// still conflict with (d.mu exclusive held; takes txnMu inside, which
// is the established d.mu → txnMu order).
func (d *Database) pruneTxnLogLocked() {
	min := d.txnSeq
	d.txnMu.Lock()
	for _, t := range d.activeTxns {
		if t.startSeq < min {
			min = t.startSeq
		}
	}
	d.txnMu.Unlock()
	i := 0
	for i < len(d.txnLog) && d.txnLog[i].seq <= min {
		i++
	}
	switch {
	case i == len(d.txnLog):
		d.txnLog = nil
	case i > 0:
		d.txnLog = append([]commitRec(nil), d.txnLog[i:]...)
	}
}

// remapCond rewrites overlay-allocated variable ids (>= wsBase) by
// delta for publication against the live store. Conditions are sorted
// by variable; the shifted ids form a suffix moved uniformly, so order
// is preserved.
func (t *Txn) remapCond(c lineage.Cond, delta int) lineage.Cond {
	if delta == 0 || len(c) == 0 {
		return c
	}
	needs := false
	for _, l := range c {
		if int(l.Var) >= t.wsBase {
			needs = true
			break
		}
	}
	if !needs {
		return c
	}
	out := c.Clone()
	for i, l := range out {
		if int(l.Var) >= t.wsBase {
			out[i].Var = l.Var + ws.VarID(delta)
		}
	}
	return out
}

// applyLocked replays the transaction's buffered effects onto live
// state, in deterministic order (drops, overlay diffs, creates; names
// sorted within each phase) so the WAL byte stream is reproducible.
func (t *Txn) applyLocked(delta int) error {
	d := t.db
	for _, n := range sortedKeys(t.dropped) {
		tb, ok := d.tables[n]
		if !ok {
			continue
		}
		delete(d.tables, n)
		if d.durable != nil {
			if err := d.durable.DropTable(n); err != nil {
				d.tables[n] = tb
				return err
			}
		}
	}
	for _, n := range sortedKeys(t.overs) {
		if t.dropped[n] {
			// Written, then dropped in the same transaction: the drop
			// above already removed it.
			continue
		}
		live, ok := d.tables[n]
		if !ok {
			// Validation guarantees no committed DROP raced us; a missing
			// table here would be an engine bug, surfaced loudly.
			return fmt.Errorf("db: commit: table %q vanished", n)
		}
		ov := t.overs[n]
		err := ov.Diff(func(id storage.RowID, dead bool, tup urel.Tuple) error {
			if dead {
				_, derr := live.Delete(id)
				return derr
			}
			_, uerr := live.Update(id, urel.Tuple{Data: tup.Data, Cond: t.remapCond(tup.Cond, delta)})
			return uerr
		})
		if err != nil {
			return err
		}
		err = ov.Appended(func(tup urel.Tuple) error {
			_, ierr := live.Insert(urel.Tuple{Data: tup.Data, Cond: t.remapCond(tup.Cond, delta)})
			return ierr
		})
		if err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(t.created) {
		if _, exists := d.tables[n]; exists {
			return fmt.Errorf("db: commit: table %q already exists", n)
		}
		src, ok := t.tables[n]
		if !ok {
			continue
		}
		live, err := d.newTable(n, src.Schema())
		if err != nil {
			return err
		}
		err = src.Scan(func(_ storage.RowID, tup urel.Tuple) error {
			_, ierr := live.Insert(urel.Tuple{Data: tup.Data, Cond: t.remapCond(tup.Cond, delta)})
			return ierr
		})
		if err != nil {
			return err
		}
		d.tables[n] = live
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- statement execution inside the transaction ----

// tableView is the read surface shared by live facades (the
// transaction's own writes) and base snapshots: everything the txn
// catalog needs to serve the planner and executor.
type tableView interface {
	Schema() *schema.Schema
	ToRel() *urel.Rel
	Certain() bool
	Len() int
	Batches(sch *schema.Schema, size int, sieve storage.Sieve) urel.Iterator
	PartBatches(sch *schema.Schema, part, nparts, size int, sieve storage.Sieve) urel.Iterator
}

// view resolves a table name for reading: the transaction's own
// facades shadow the snapshot, and in-transaction drops hide base
// tables.
func (t *Txn) view(name string) (tableView, error) {
	n := strings.ToLower(name)
	if tb, ok := t.tables[n]; ok {
		return tb, nil
	}
	if !t.dropped[n] {
		if sn, ok := t.snap.tables[n]; ok {
			return sn, nil
		}
	}
	return nil, fmt.Errorf("db: table %q does not exist", name)
}

// writable resolves a table name for mutation, lazily wrapping a base
// table's snapshot in a write-set Overlay on first write. Only called
// during DML setup under t.mu — never concurrently with query
// execution, so the map writes cannot race the executor's catalog
// reads.
func (t *Txn) writable(name string) (*storage.Table, error) {
	n := strings.ToLower(name)
	if tb, ok := t.tables[n]; ok {
		return tb, nil
	}
	if !t.dropped[n] {
		if sn, ok := t.snap.tables[n]; ok {
			ov := storage.NewOverlay(sn)
			tb := storage.NewTableWith(n, sn.Schema(), ov)
			t.overs[n] = ov
			t.tables[n] = tb
			return tb, nil
		}
	}
	return nil, fmt.Errorf("db: table %q does not exist", name)
}

// plan.Catalog / exec.BatchCatalog / exec.PartitionCatalog over the
// transaction's composed view.

// TableSchema implements plan.Catalog.
func (t *Txn) TableSchema(name string) (*schema.Schema, error) {
	v, err := t.view(name)
	if err != nil {
		return nil, err
	}
	return v.Schema(), nil
}

// TableRel implements plan.Catalog.
func (t *Txn) TableRel(name string) (*urel.Rel, error) {
	v, err := t.view(name)
	if err != nil {
		return nil, err
	}
	return v.ToRel(), nil
}

// TableCertain implements plan.Catalog.
func (t *Txn) TableCertain(name string) (bool, error) {
	v, err := t.view(name)
	if err != nil {
		return false, err
	}
	return v.Certain(), nil
}

// TableBatches implements exec.BatchCatalog.
func (t *Txn) TableBatches(name string, size int, sieve storage.Sieve) (urel.Iterator, error) {
	v, err := t.view(name)
	if err != nil {
		return nil, err
	}
	return v.Batches(nil, size, sieve), nil
}

// TablePartBatches implements exec.PartitionCatalog.
func (t *Txn) TablePartBatches(name string, part, nparts, size int, sieve storage.Sieve) (urel.Iterator, error) {
	v, err := t.view(name)
	if err != nil {
		return nil, err
	}
	return v.PartBatches(nil, part, nparts, size, sieve), nil
}

// TableLen implements exec.PartitionCatalog (and plan.Estimator).
func (t *Txn) TableLen(name string) (int, error) {
	v, err := t.view(name)
	if err != nil {
		return 0, err
	}
	return v.Len(), nil
}

// planFor implements planner. In-transaction plans bypass the plan
// cache entirely: they are built against the transaction's private
// view, which no generation number describes, and caching them would
// leak one transaction's uncommitted schema into another's plans.
func (t *Txn) planFor(q sql.Query) (plan.Node, []types.Value, string, bool, error) {
	n, err := plan.Build(q, t)
	if err != nil {
		return nil, nil, "", false, err
	}
	n = plan.Optimize(n, plan.OptOptions{Est: t})
	return n, nil, "", false, nil
}

func (t *Txn) home() *Database { return t.db }

// queryPlanned plans and drains a query against the transaction view.
func (t *Txn) queryPlanned(q sql.Query, lq *LiveQuery) (*urel.Rel, plan.Node, error) {
	n, _, _, _, err := t.planFor(q)
	if err != nil {
		return nil, nil, err
	}
	lq.setRoot(n)
	it, err := t.exec.Open(n)
	if err != nil {
		return nil, n, err
	}
	rel, err := urel.Drain(it)
	return rel, n, err
}

func (t *Txn) query(q sql.Query) (*urel.Rel, error) {
	rel, _, err := t.queryPlanned(q, nil)
	return rel, err
}

// recordReads folds statement s's read dependencies into the claim
// bookkeeping. Read-only statements never claim anything — snapshot
// isolation lets plain reads commute with every writer; only
// statements with effects carry read dependencies.
func (t *Txn) recordReads(s sql.Statement) {
	if t.readAll || sql.ReadOnly(s) {
		return
	}
	names, complete := sql.ReadTables(s)
	if !complete {
		t.readAll = true
		return
	}
	for _, n := range names {
		t.reads[n] = true
	}
}

// runStatement executes one statement inside the transaction; the
// caller holds t.mu. No database lock is taken on this path.
func (t *Txn) runStatement(s sql.Statement, tr *trace.Trace, lq *LiveQuery) (*Result, plan.Node, error) {
	if t.done {
		return nil, nil, t.errDone()
	}
	t.exec.Tracer = tr
	t.exec.Cancel = lq.Flag()
	defer func() { t.exec.Tracer, t.exec.Cancel = nil, nil }()
	t.recordReads(s)
	switch s := s.(type) {
	case *sql.CreateTable:
		return noNode(t.createTable(s))
	case *sql.DropTable:
		return noNode(t.dropTable(s))
	case *sql.Insert:
		return noNode(t.insert(s))
	case *sql.Update:
		return noNode(t.update(s))
	case *sql.Delete:
		return noNode(t.del(s))
	case *sql.QueryStmt:
		rel, n, err := t.queryPlanned(s.Query, lq)
		if err != nil {
			return nil, n, err
		}
		return &Result{Rel: rel}, n, nil
	case *sql.ExplainStmt:
		if s.Analyze {
			if tr == nil {
				tr = trace.New()
			}
			return explainAnalyze(s, t, t.exec, tr, lq)
		}
		res, err := explain(s, t)
		return res, nil, err
	default:
		return nil, nil, fmt.Errorf("db: unsupported statement %T in a transaction", s)
	}
}

func noNode(res *Result, err error) (*Result, plan.Node, error) {
	return res, nil, err
}

func (t *Txn) createTable(s *sql.CreateTable) (*Result, error) {
	name := strings.ToLower(s.Name)
	if _, err := t.view(name); err == nil {
		return nil, fmt.Errorf("db: table %q already exists", s.Name)
	}
	var tbl *storage.Table
	var inserted int
	if s.AsQuery != nil {
		rel, err := t.query(s.AsQuery)
		if err != nil {
			return nil, err
		}
		// Derive a storable schema: strip qualifiers; unknown (all
		// NULL) columns default to TEXT.
		cols := make([]schema.Column, rel.Sch.Len())
		seen := map[string]bool{}
		for i, c := range rel.Sch.Cols {
			kind := c.Kind
			if kind == types.KindNull {
				kind = types.KindText
			}
			cname := strings.ToLower(c.Name)
			if cname == "" || seen[cname] {
				cname = fmt.Sprintf("column%d", i+1)
			}
			seen[cname] = true
			cols[i] = schema.Column{Name: cname, Kind: kind}
		}
		tbl = storage.NewTable(name, schema.New(cols...))
		for _, tup := range rel.Tuples {
			if _, err := tbl.Insert(tup.Clone()); err != nil {
				return nil, err
			}
			inserted++
		}
	} else {
		cols := make([]schema.Column, len(s.Cols))
		seen := map[string]bool{}
		for i, c := range s.Cols {
			cname := strings.ToLower(c.Name)
			if seen[cname] {
				return nil, fmt.Errorf("db: duplicate column %q", c.Name)
			}
			seen[cname] = true
			cols[i] = schema.Column{Name: cname, Kind: c.Kind}
		}
		tbl = storage.NewTable(name, schema.New(cols...))
	}
	t.tables[name] = tbl
	t.created[name] = true
	return &Result{Msg: fmt.Sprintf("CREATE TABLE %s", name), RowsAffected: inserted}, nil
}

func (t *Txn) dropTable(s *sql.DropTable) (*Result, error) {
	name := strings.ToLower(s.Name)
	if _, err := t.view(name); err != nil {
		if s.IfExists {
			return &Result{Msg: "DROP TABLE (no-op)"}, nil
		}
		return nil, err
	}
	delete(t.tables, name)
	delete(t.overs, name)
	delete(t.created, name)
	if _, inBase := t.snap.tables[name]; inBase {
		t.dropped[name] = true
	}
	return &Result{Msg: fmt.Sprintf("DROP TABLE %s", name)}, nil
}

func (t *Txn) insert(s *sql.Insert) (*Result, error) {
	tbl, err := t.writable(s.Table)
	if err != nil {
		return nil, err
	}
	sch := tbl.Schema()
	colIdx := make([]int, 0, sch.Len())
	if len(s.Cols) > 0 {
		for _, c := range s.Cols {
			idx, err := sch.Resolve("", c)
			if err != nil {
				return nil, err
			}
			colIdx = append(colIdx, idx)
		}
	} else {
		for i := 0; i < sch.Len(); i++ {
			colIdx = append(colIdx, i)
		}
	}
	var tuples []urel.Tuple
	if s.Query != nil {
		rel, err := t.query(s.Query)
		if err != nil {
			return nil, err
		}
		if rel.Sch.Len() != len(colIdx) {
			return nil, fmt.Errorf("db: INSERT expects %d columns, query returned %d", len(colIdx), rel.Sch.Len())
		}
		for _, tup := range rel.Tuples {
			full := make(schema.Tuple, sch.Len())
			for i := range full {
				full[i] = types.Null()
			}
			for i, idx := range colIdx {
				full[idx] = tup.Data[i]
			}
			tuples = append(tuples, urel.Tuple{Data: full, Cond: tup.Cond.Clone()})
		}
	} else {
		empty := schema.New()
		for _, row := range s.Rows {
			if len(row) != len(colIdx) {
				return nil, fmt.Errorf("db: INSERT row has %d values, expected %d", len(row), len(colIdx))
			}
			full := make(schema.Tuple, sch.Len())
			for i := range full {
				full[i] = types.Null()
			}
			for i, expr := range row {
				c, err := plan.Compile(expr, empty)
				if err != nil {
					return nil, fmt.Errorf("db: INSERT values must be constant expressions: %v", err)
				}
				v, err := c.Eval(&plan.EvalCtx{Store: t.wsOver}, nil)
				if err != nil {
					return nil, err
				}
				full[colIdx[i]] = v
			}
			tuples = append(tuples, urel.Tuple{Data: full})
		}
	}
	count := 0
	for _, tup := range tuples {
		if _, err := tbl.Insert(tup); err != nil {
			return nil, err
		}
		count++
	}
	return &Result{RowsAffected: count, Msg: fmt.Sprintf("INSERT %d", count)}, nil
}

func (t *Txn) update(s *sql.Update) (*Result, error) {
	tbl, err := t.writable(s.Table)
	if err != nil {
		return nil, err
	}
	sch := tbl.Schema()
	type setc struct {
		idx int
		c   *plan.Compiled
	}
	sets := make([]setc, len(s.Sets))
	for i, sc := range s.Sets {
		idx, err := sch.Resolve("", sc.Col)
		if err != nil {
			return nil, err
		}
		c, err := plan.Compile(sc.Expr, sch)
		if err != nil {
			return nil, err
		}
		sets[i] = setc{idx: idx, c: c}
	}
	var where *plan.Compiled
	if s.Where != nil {
		c, err := plan.Compile(s.Where, sch)
		if err != nil {
			return nil, err
		}
		where = c
	}
	ctx := &plan.EvalCtx{Store: t.wsOver}
	// Collect target rows first so updates do not re-match.
	var targets []storage.RowID
	if err := tbl.Scan(func(id storage.RowID, tup urel.Tuple) error {
		if where != nil {
			ok, err := where.Test(ctx, tup.Data)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		targets = append(targets, id)
		return nil
	}); err != nil {
		return nil, err
	}
	count := 0
	for _, id := range targets {
		old, _ := tbl.Get(id)
		data := old.Data.Clone()
		for _, sc := range sets {
			v, err := sc.c.Eval(ctx, old.Data)
			if err != nil {
				return nil, err
			}
			data[sc.idx] = v
		}
		if _, err := tbl.Update(id, urel.Tuple{Data: data, Cond: old.Cond}); err != nil {
			return nil, err
		}
		count++
	}
	return &Result{RowsAffected: count, Msg: fmt.Sprintf("UPDATE %d", count)}, nil
}

func (t *Txn) del(s *sql.Delete) (*Result, error) {
	tbl, err := t.writable(s.Table)
	if err != nil {
		return nil, err
	}
	sch := tbl.Schema()
	var where *plan.Compiled
	if s.Where != nil {
		c, err := plan.Compile(s.Where, sch)
		if err != nil {
			return nil, err
		}
		where = c
	}
	ctx := &plan.EvalCtx{Store: t.wsOver}
	var targets []storage.RowID
	if err := tbl.Scan(func(id storage.RowID, tup urel.Tuple) error {
		if where != nil {
			ok, err := where.Test(ctx, tup.Data)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		targets = append(targets, id)
		return nil
	}); err != nil {
		return nil, err
	}
	count := 0
	for _, id := range targets {
		if _, err := tbl.Delete(id); err != nil {
			return nil, err
		}
		count++
	}
	return &Result{RowsAffected: count, Msg: fmt.Sprintf("DELETE %d", count)}, nil
}

// ---- the embedded default-transaction slot and txn control ----

// peekDefaultTxn returns the transaction the embedded BEGIN statement
// opened, if one is active.
func (d *Database) peekDefaultTxn() *Txn {
	d.txnMu.Lock()
	t := d.defaultTxn
	d.txnMu.Unlock()
	return t
}

// takeDefaultTxn fetches and clears the default slot. Always clears:
// a conflicting COMMIT rolls the transaction back, so the slot must
// not keep pointing at a dead transaction.
func (d *Database) takeDefaultTxn() *Txn {
	d.txnMu.Lock()
	t := d.defaultTxn
	d.defaultTxn = nil
	d.txnMu.Unlock()
	return t
}

// txnControl handles BEGIN/COMMIT/ROLLBACK for embedded callers (the
// shell, scripts): an explicit transaction parked in the database's
// default slot, which subsequent statements route through until it
// ends. The network server manages per-session transactions itself
// via QueryMeta.Txn and never reaches this path.
func (d *Database) txnControl(s sql.Statement) (*Result, error) {
	switch s.(type) {
	case *sql.Begin:
		if d.peekDefaultTxn() != nil {
			return nil, fmt.Errorf("db: already in a transaction")
		}
		// Begin optimistically, then park it — never call Begin while
		// holding txnMu (beginLocked takes txnMu under d.mu).
		t := d.Begin()
		d.txnMu.Lock()
		if d.defaultTxn != nil {
			d.txnMu.Unlock()
			t.Rollback()
			return nil, fmt.Errorf("db: already in a transaction")
		}
		d.defaultTxn = t
		d.txnMu.Unlock()
		return &Result{Msg: "BEGIN"}, nil
	case *sql.Commit:
		t := d.takeDefaultTxn()
		if t == nil {
			return nil, fmt.Errorf("db: no transaction in progress")
		}
		if err := t.Commit(); err != nil {
			return nil, err
		}
		return &Result{Msg: "COMMIT"}, nil
	default: // *sql.Rollback
		t := d.takeDefaultTxn()
		if t == nil {
			return nil, fmt.Errorf("db: no transaction in progress")
		}
		if err := t.Rollback(); err != nil {
			return nil, err
		}
		return &Result{Msg: "ROLLBACK"}, nil
	}
}

// TxnStats is a point-in-time view of transaction activity, feeding
// the metrics endpoint.
type TxnStats struct {
	// Active counts open explicit transactions.
	Active int
	// Commits / Conflicts / Rollbacks count explicit-transaction
	// outcomes since startup (a conflicted COMMIT counts only as a
	// conflict).
	Commits   int64
	Conflicts int64
	Rollbacks int64
}

// TxnStats reports transaction counters for /metrics and tests.
func (d *Database) TxnStats() TxnStats {
	d.txnMu.Lock()
	n := len(d.activeTxns)
	d.txnMu.Unlock()
	return TxnStats{
		Active:    n,
		Commits:   d.txnCommits.Load(),
		Conflicts: d.txnConflicts.Load(),
		Rollbacks: d.txnRollbacks.Load(),
	}
}

// hasActiveTxns reports whether any explicit transaction is open
// (Save/Load refuse to run under one: a whole-database snapshot or
// replacement concurrent with buffered writes has no sound meaning).
func (d *Database) hasActiveTxns() bool {
	d.txnMu.Lock()
	n := len(d.activeTxns)
	d.txnMu.Unlock()
	return n > 0
}
