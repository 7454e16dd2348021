package disk

import (
	"fmt"

	"maybms/internal/schema"
	"maybms/internal/storage"
	"maybms/internal/urel"
)

// Engine is the durable storage engine behind a storage.Table: a
// resident storage.Heap mirror (which serves every read, snapshot,
// and partitioned scan exactly like the in-memory engine — reads are
// byte-identical across engines by construction) plus write-ahead
// logging of every mutation into the owning Store's WAL. Rows below
// flushed live in segment files; mutations to that checkpointed
// prefix are tracked in dirty so the next checkpoint re-writes just
// the changed rows.
//
// Mutating methods run under the database's exclusive lock, like
// every storage.Engine. segs is additionally guarded by the Store
// mutex because the background compactor swaps it.
type Engine struct {
	name string
	sch  *schema.Schema
	st   *Store
	heap *storage.Heap

	// flushed is the heap extent covered by segments as of the last
	// checkpoint; dirty tracks checkpointed rows mutated since.
	// Both are touched only under the database exclusive lock.
	flushed int
	dirty   map[storage.RowID]struct{}

	// segs lists the table's segment files, oldest first; guarded by
	// st.mu (checkpoint and the compactor both swap it).
	segs []segRef
}

type segRef struct {
	file string
	rows int64
}

func newEngine(name string, sch *schema.Schema, st *Store) *Engine {
	return &Engine{name: name, sch: sch, st: st, heap: storage.NewHeap(), dirty: map[storage.RowID]struct{}{}}
}

// Schema returns the table schema recovered from or logged to disk.
func (e *Engine) Schema() *schema.Schema { return e.sch }

// Len implements storage.Engine.
func (e *Engine) Len() int { return e.heap.Len() }

// Certain implements storage.Engine.
func (e *Engine) Certain() bool { return e.heap.Certain() }

// Append implements storage.Engine: heap append, then WAL.
func (e *Engine) Append(t urel.Tuple) (storage.RowID, error) {
	id, _ := e.heap.Append(t)
	if err := e.st.logRecord(recInsert, encInsert(e.name, uint64(id), false, t)); err != nil {
		return id, err
	}
	return id, nil
}

// Get implements storage.Engine.
func (e *Engine) Get(id storage.RowID) (urel.Tuple, bool) { return e.heap.Get(id) }

// MarkDead implements storage.Engine.
func (e *Engine) MarkDead(id storage.RowID, dead bool) (urel.Tuple, error) {
	t, err := e.heap.MarkDead(id, dead)
	if err != nil {
		return t, err
	}
	if int(id) < e.flushed {
		e.dirty[id] = struct{}{}
	}
	return t, e.st.logRecord(recSetDead, encSetDead(e.name, uint64(id), dead))
}

// Replace implements storage.Engine.
func (e *Engine) Replace(id storage.RowID, t urel.Tuple) (urel.Tuple, error) {
	old, err := e.heap.Replace(id, t)
	if err != nil {
		return old, err
	}
	if int(id) < e.flushed {
		e.dirty[id] = struct{}{}
	}
	return old, e.st.logRecord(recReplace, encReplace(e.name, uint64(id), t))
}

// Truncate implements storage.Engine.
func (e *Engine) Truncate() ([]storage.RowWithID, error) {
	out, err := e.heap.Truncate()
	if err != nil {
		return nil, err
	}
	for _, r := range out {
		if int(r.ID) < e.flushed {
			e.dirty[r.ID] = struct{}{}
		}
	}
	return out, e.st.logRecord(recTruncate, appendStr(nil, e.name))
}

// Scan implements storage.Engine.
func (e *Engine) Scan(fn func(id storage.RowID, tuple urel.Tuple) error) error {
	return e.heap.Scan(fn)
}

// Batches implements storage.Engine.
func (e *Engine) Batches(sch *schema.Schema, size int, sieve storage.Sieve) urel.Iterator {
	return e.heap.Batches(sch, size, sieve)
}

// PartBatches implements storage.Engine.
func (e *Engine) PartBatches(sch *schema.Schema, part, nparts, size int, sieve storage.Sieve) urel.Iterator {
	return e.heap.PartBatches(sch, part, nparts, size, sieve)
}

// Snapshot implements storage.Engine: MVCC views come straight from
// the heap mirror.
func (e *Engine) Snapshot(name string, sch *schema.Schema) *storage.Snapshot {
	return e.heap.Snapshot(name, sch)
}

// Rows implements storage.Engine.
func (e *Engine) Rows() ([]urel.Tuple, []bool) { return e.heap.Rows() }

// LoadRows implements storage.Engine. The durable engine is populated
// only through its own WAL/segment recovery; a wholesale swap would
// silently diverge from the log.
func (e *Engine) LoadRows(rows []urel.Tuple, dead []bool) error {
	return fmt.Errorf("disk engine: cannot load a snapshot into a durable table; open a fresh data directory instead")
}

// applyInsert, applySetDead, applyReplace, applyTruncate replay WAL
// records into the heap mirror without re-logging (recovery path).
// They maintain the dirty set exactly like the logging path: a
// replayed mutation of a checkpointed row must reach the next
// checkpoint's delta segment or it would be lost when the replayed
// WAL is rotated away.
func (e *Engine) applyInsert(id uint64, dead bool, t urel.Tuple) {
	e.heap.Place(storage.RowID(id), t, dead)
	if int(id) < e.flushed {
		e.dirty[storage.RowID(id)] = struct{}{}
	}
}

func (e *Engine) applySetDead(id uint64, dead bool) error {
	_, err := e.heap.MarkDead(storage.RowID(id), dead)
	if err == nil && int(id) < e.flushed {
		e.dirty[storage.RowID(id)] = struct{}{}
	}
	return err
}

func (e *Engine) applyReplace(id uint64, t urel.Tuple) error {
	_, err := e.heap.Replace(storage.RowID(id), t)
	if err == nil && int(id) < e.flushed {
		e.dirty[storage.RowID(id)] = struct{}{}
	}
	return err
}

func (e *Engine) applyTruncate() {
	removed, _ := e.heap.Truncate()
	for _, r := range removed {
		if int(r.ID) < e.flushed {
			e.dirty[r.ID] = struct{}{}
		}
	}
}
