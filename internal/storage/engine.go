package storage

import (
	"maybms/internal/schema"
	"maybms/internal/urel"
)

// Engine is the pluggable row store behind a Table. A Table is a thin
// facade — schema type checking — over an Engine that owns the rows themselves: stable row ids, tombstones,
// batched scans, and MVCC snapshots. Two implementations exist: Heap
// (the original in-memory copy-on-write store) and disk.Engine (a
// WAL-durable backend that mirrors the heap in memory and logs every
// mutation for crash recovery).
//
// Engines are single-writer: every mutating call happens under the
// database's exclusive lock. Snapshot may be called under the shared
// read lock, concurrently with other snapshots but never with a
// writer; the returned view then needs no lock at all.
type Engine interface {
	// Len reports the number of live rows.
	Len() int
	// Certain reports whether every live row is condition-free.
	Certain() bool

	// Append adds a type-checked tuple at the next row id.
	Append(t urel.Tuple) (RowID, error)
	// Get returns the live tuple at id (ok=false when dead or out of
	// range).
	Get(id RowID) (urel.Tuple, bool)
	// MarkDead sets a row's tombstone flag to dead, returning the
	// tuple so the caller can maintain undo logs. It is an
	// error to kill a dead row or resurrect a live one.
	MarkDead(id RowID, dead bool) (urel.Tuple, error)
	// Replace overwrites a live row in place, returning the previous
	// tuple.
	Replace(id RowID, t urel.Tuple) (urel.Tuple, error)
	// Truncate tombstones every live row, returning them with ids for
	// undo.
	Truncate() ([]RowWithID, error)

	// Scan calls fn for every live row in insertion order; a non-nil
	// error stops the scan.
	Scan(fn func(id RowID, tuple urel.Tuple) error) error
	// Batches returns a pull iterator over the live rows in insertion
	// order, keeping only the rows sieve keeps (nil keeps all). Valid
	// only while the engine lock covering the table is held;
	// Snapshot(...).Batches streams without any lock.
	Batches(sch *schema.Schema, size int, sieve Sieve) urel.Iterator
	// PartBatches returns the part-th of nparts contiguous row-range
	// shards; concatenating all partitions in order reproduces Batches
	// exactly.
	PartBatches(sch *schema.Schema, part, nparts, size int, sieve Sieve) urel.Iterator
	// Snapshot returns an immutable point-in-time view of the rows.
	Snapshot(name string, sch *schema.Schema) *Snapshot

	// Rows exposes the raw row storage (including tombstones) for
	// persistence; callers must treat both slices as read-only.
	Rows() ([]urel.Tuple, []bool)
	// LoadRows replaces the engine's contents wholesale (database
	// restore). Engines that can only be populated through their own
	// recovery path return an error.
	LoadRows(rows []urel.Tuple, dead []bool) error
}
