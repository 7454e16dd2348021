// Package storage implements the row store backing the database:
// tables of conditioned tuples with tombstone deletes, stable row ids,
// and type checking against the table schema, over a
// pluggable Engine (in-memory Heap or the WAL-durable disk backend).
// The store is deliberately simple — MayBMS's point is that a purely
// relational representation makes updates, concurrency control, and
// recovery unremarkable — but it is a real store: the undo information
// the transaction layer needs is exposed here.
package storage

import (
	"fmt"

	"maybms/internal/schema"
	"maybms/internal/types"
	"maybms/internal/urel"
)

// RowID identifies a row within a table for its whole lifetime.
type RowID int64

// Table is a fixed-schema table: schema type checking layered over a
// storage Engine that owns the rows.
type Table struct {
	name string
	sch  *schema.Schema
	eng  Engine
}

// NewTable creates an empty table on the in-memory heap engine.
func NewTable(name string, sch *schema.Schema) *Table {
	return NewTableWith(name, sch, NewHeap())
}

// NewTableWith creates a table over an explicit storage engine, which
// may already hold rows (recovery).
func NewTableWith(name string, sch *schema.Schema, eng Engine) *Table {
	return &Table{name: name, sch: sch, eng: eng}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() *schema.Schema { return t.sch }

// Engine returns the storage engine backing this table.
func (t *Table) Engine() Engine { return t.eng }

// Len reports the number of live rows.
func (t *Table) Len() int { return t.eng.Len() }

// Certain reports whether every live row is condition-free, i.e. the
// table is typed-certain.
func (t *Table) Certain() bool { return t.eng.Certain() }

// checkTypes verifies tuple arity and column types; NULL fits any
// column, INTs widen to FLOAT columns.
func (t *Table) checkTypes(tp schema.Tuple) (schema.Tuple, error) {
	if len(tp) != t.sch.Len() {
		return nil, fmt.Errorf("table %s: expected %d values, got %d", t.name, t.sch.Len(), len(tp))
	}
	out := tp
	for i, v := range tp {
		want := t.sch.Cols[i].Kind
		if v.IsNull() || v.Kind() == want {
			continue
		}
		if want == types.KindFloat && v.Kind() == types.KindInt {
			if &out[0] == &tp[0] {
				out = tp.Clone()
			}
			out[i] = types.NewFloat(float64(v.Int()))
			continue
		}
		return nil, fmt.Errorf("table %s column %s: cannot store %s in %s",
			t.name, t.sch.Cols[i].Name, v.Kind(), want)
	}
	return out, nil
}

// Insert appends a tuple, returning its row id.
func (t *Table) Insert(tuple urel.Tuple) (RowID, error) {
	data, err := t.checkTypes(tuple.Data)
	if err != nil {
		return -1, err
	}
	tuple.Data = data
	id, err := t.eng.Append(tuple)
	if err != nil {
		return -1, fmt.Errorf("table %s: %w", t.name, err)
	}
	return id, nil
}

// Get returns the tuple at id. ok=false when the row is deleted or the
// id is out of range.
func (t *Table) Get(id RowID) (urel.Tuple, bool) { return t.eng.Get(id) }

// Delete tombstones a row. It returns the deleted tuple so the
// transaction layer can undo.
func (t *Table) Delete(id RowID) (urel.Tuple, error) {
	old, err := t.eng.MarkDead(id, true)
	if err != nil {
		return urel.Tuple{}, fmt.Errorf("table %s: %w", t.name, err)
	}
	return old, nil
}

// Undelete resurrects a tombstoned row (transaction rollback).
func (t *Table) Undelete(id RowID) error {
	if _, err := t.eng.MarkDead(id, false); err != nil {
		return fmt.Errorf("table %s: %w", t.name, err)
	}
	return nil
}

// Update replaces a row in place, returning the previous tuple.
func (t *Table) Update(id RowID, tuple urel.Tuple) (urel.Tuple, error) {
	data, err := t.checkTypes(tuple.Data)
	if err != nil {
		return urel.Tuple{}, err
	}
	tuple.Data = data
	old, err := t.eng.Replace(id, tuple)
	if err != nil {
		return urel.Tuple{}, fmt.Errorf("table %s: %w", t.name, err)
	}
	return old, nil
}

// Truncate removes every row, returning the removed tuples with ids
// for undo.
func (t *Table) Truncate() ([]RowWithID, error) {
	out, err := t.eng.Truncate()
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", t.name, err)
	}
	return out, nil
}

// RowWithID pairs a tuple with its row id.
type RowWithID struct {
	ID    RowID
	Tuple urel.Tuple
}

// Scan calls fn for every live row in insertion order. Returning a
// non-nil error stops the scan.
func (t *Table) Scan(fn func(id RowID, tuple urel.Tuple) error) error {
	return t.eng.Scan(fn)
}

// Batches returns a pull iterator over the live rows in insertion
// order, handing out up to size tuples per batch under the given
// output schema (the table's own schema when sch is nil). The iterator
// captures the store's current extent at this call — it is valid only
// while the caller holds the engine lock covering this table
// (Snapshot().Batches streams without any lock). sieve, when non-nil,
// is a selection run on the rows in place: only the rows it keeps are
// copied into batches.
func (t *Table) Batches(sch *schema.Schema, size int, sieve Sieve) urel.Iterator {
	if sch == nil {
		sch = t.sch
	}
	return t.eng.Batches(sch, size, sieve)
}

// PartBatches returns a pull iterator over the part-th of nparts fixed
// row-range shards of the store (contiguous ranges over the raw row
// array, tombstones included in the split but skipped on read).
// Concatenating every partition's output in partition order yields
// exactly the rows of Batches in the same order, which is what lets a
// parallel scan merge deterministically. Validity follows Batches.
func (t *Table) PartBatches(sch *schema.Schema, part, nparts, size int, sieve Sieve) urel.Iterator {
	if sch == nil {
		sch = t.sch
	}
	return t.eng.PartBatches(sch, part, nparts, size, sieve)
}

// Snapshot returns an immutable view of the table's current state.
// The caller must hold the engine lock covering this table for the
// duration of the call (read or write); the returned view needs no
// lock at all.
func (t *Table) Snapshot() *Snapshot { return t.eng.Snapshot(t.name, t.sch) }

// ToRel materialises the live rows as a U-relation (shared tuples; the
// caller must not mutate them).
func (t *Table) ToRel() *urel.Rel {
	r := urel.New(t.sch)
	t.Scan(func(_ RowID, tuple urel.Tuple) error {
		r.Append(tuple)
		return nil
	})
	return r
}

// Rows returns the raw row storage (including tombstones) for
// persistence. Callers must treat it as read-only.
func (t *Table) Rows() ([]urel.Tuple, []bool) { return t.eng.Rows() }

// LoadRows replaces table contents during database load.
func (t *Table) LoadRows(rows []urel.Tuple, dead []bool) error {
	if err := t.eng.LoadRows(rows, dead); err != nil {
		return fmt.Errorf("table %s: %w", t.name, err)
	}
	return nil
}
