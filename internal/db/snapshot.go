package db

import (
	"fmt"
	"strings"
	"sync/atomic"

	"maybms/internal/exec"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/storage"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// Snapshot is an immutable view of the entire database — every table
// plus the world-set store — at a single point in time. It implements
// plan.Catalog and exec.BatchCatalog, so read-only queries plan and
// execute against it exactly as they would against the live database,
// but with no lock held: writers proceed concurrently, and the
// snapshot keeps serving the frozen state (copy-on-write at the
// storage layer pays for divergence only when a writer actually
// mutates shared rows).
//
// This is what makes cursor reads snapshot-isolated: OpenQuery takes
// the engine's read lock only long enough to capture a Snapshot, then
// releases it. Only read-only queries may run against a snapshot —
// repair-key / pick-tuples allocate world-set variables, which a
// frozen store must never do.
//
// SnapshotFor scopes the capture to the tables the statement
// references (sql.StatementTables): while such a snapshot is open, a
// writer pays copy-on-write only on tables the statement can read —
// mutations of every other table proceed in place. Snapshot captures
// all tables, for callers without a statement to scope by.
type Snapshot struct {
	tables map[string]*storage.Snapshot
	store  *ws.Store // frozen prefix view (ws.Store.Freeze)
	exec   *exec.Executor
	db     *Database
	// gen is the plan-cache generation captured with the snapshot
	// (under the same read lock, so it is consistent with the frozen
	// tables): cached plans are valid for this snapshot exactly when
	// their generation matches.
	gen    int64
	closed atomic.Bool
}

// Snapshot captures a point-in-time view of the database. The read
// lock is held only for the duration of this call — O(#tables), no row
// copying — and the returned view is then valid indefinitely with no
// lock at all. Callers should Close the snapshot when done so the
// open-snapshots gauge stays accurate; an unclosed snapshot leaks only
// gauge count and memory, never a lock.
func (d *Database) Snapshot() *Snapshot {
	d.mu.RLock()
	s := d.snapshotLocked(nil)
	d.mu.RUnlock()
	return s
}

// SnapshotFor captures a point-in-time view scoped to the tables
// statement s references. When the reference analysis cannot account
// for every construct, the snapshot conservatively spans all tables —
// scoping is an optimisation for writers, never a correctness risk
// for the reader: a table missing from a complete walk is one the
// statement cannot name, and naming it anyway fails at plan time with
// the same "does not exist" it would get after a DROP.
func (d *Database) SnapshotFor(s sql.Statement) *Snapshot {
	names, complete := sql.StatementTables(s)
	d.mu.RLock()
	snap := d.snapshotLocked(scopeSet(names, complete))
	d.mu.RUnlock()
	return snap
}

// scopeSet turns the walker's result into a capture filter; nil means
// capture everything.
func scopeSet(names []string, complete bool) map[string]bool {
	if !complete {
		return nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// snapshotLocked captures the snapshot; the caller holds d.mu (read or
// write). scope limits the captured tables (nil = all).
func (d *Database) snapshotLocked(scope map[string]bool) *Snapshot {
	s := &Snapshot{
		tables: make(map[string]*storage.Snapshot, len(d.tables)),
		store:  d.store.Freeze(),
		db:     d,
		gen:    d.planGen.Load(),
	}
	for n, t := range d.tables {
		if scope != nil && !scope[n] {
			continue
		}
		s.tables[n] = t.Snapshot()
	}
	s.exec = d.exec.Fork(s, s.store)
	d.snapsOpen.Add(1)
	return s
}

// Close releases the snapshot: the open-snapshots gauge drops, and
// each table snapshot releases its claim on the live table's shared
// arrays, so writers stop paying copy-on-write for a view nobody
// reads. Idempotent. After Close the snapshot must not be used.
func (s *Snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		for _, t := range s.tables {
			t.Release()
		}
		s.db.snapsOpen.Add(-1)
	}
}

// SnapshotsOpen reports how many snapshots (including those pinned by
// open cursors) are currently live.
func (d *Database) SnapshotsOpen() int64 { return d.snapsOpen.Load() }

func (s *Snapshot) table(name string) (*storage.Snapshot, error) {
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	return t, nil
}

// TableSchema implements plan.Catalog.
func (s *Snapshot) TableSchema(name string) (*schema.Schema, error) {
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// TableRel implements plan.Catalog.
func (s *Snapshot) TableRel(name string) (*urel.Rel, error) {
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	return t.ToRel(), nil
}

// TableCertain implements plan.Catalog.
func (s *Snapshot) TableCertain(name string) (bool, error) {
	t, err := s.table(name)
	if err != nil {
		return false, err
	}
	return t.Certain(), nil
}

// TableBatches implements exec.BatchCatalog: a streaming scan over the
// frozen heap. Unlike the live catalog's iterator, it is valid with no
// lock, for the snapshot's whole lifetime.
func (s *Snapshot) TableBatches(name string, size int, sieve storage.Sieve) (urel.Iterator, error) {
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	return t.Batches(nil, size, sieve), nil
}

// TablePartBatches implements exec.PartitionCatalog: a streaming scan
// over one contiguous row-range shard of the frozen heap. The shards
// are pulled concurrently by exchange workers, which is safe with no
// lock precisely because the heap is frozen.
func (s *Snapshot) TablePartBatches(name string, part, nparts, size int, sieve storage.Sieve) (urel.Iterator, error) {
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	return t.PartBatches(nil, part, nparts, size, sieve), nil
}

// TableLen implements exec.PartitionCatalog.
func (s *Snapshot) TableLen(name string) (int, error) {
	t, err := s.table(name)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// Query plans and runs a read-only query against the snapshot,
// draining the streaming pipeline into a materialised result. No
// engine lock is held at any point. Planning goes through the
// database's normalized-plan cache and the cost-aware optimizer: a
// repeated query shape reuses its cached plan with fresh literal
// bindings (see plancache.go).
func (s *Snapshot) Query(q sql.Query) (*urel.Rel, error) {
	rel, _, err := s.queryPlanned(q)
	return rel, err
}

// queryPlanned is Query, also returning the plan root for traced
// callers.
func (s *Snapshot) queryPlanned(q sql.Query) (*urel.Rel, plan.Node, error) {
	n, err := s.plan(q)
	if err != nil {
		return nil, nil, err
	}
	it, err := s.exec.Open(n)
	if err != nil {
		return nil, n, err
	}
	rel, err := urel.Drain(it)
	return rel, n, err
}

// plan compiles q against the snapshot through the plan cache and
// installs the normalized literal bindings on the snapshot's executor.
func (s *Snapshot) plan(q sql.Query) (plan.Node, error) {
	if !sql.QueryReadOnly(q) {
		return nil, fmt.Errorf("db: internal: write query (repair-key/pick-tuples) run against a snapshot")
	}
	n, args, _, _, err := s.db.planQuery(q, s, s, s.gen)
	if err != nil {
		return nil, err
	}
	s.exec.Args = args
	return n, nil
}
