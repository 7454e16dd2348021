package storage

import (
	"fmt"
	"sync/atomic"

	"maybms/internal/schema"
	"maybms/internal/urel"
)

// Heap is the in-memory storage engine: a row array with tombstone
// deletes and copy-on-write MVCC snapshots.
//
// Snapshot hands out immutable views that alias the live rows/dead
// slices; in-place mutation therefore goes through prepareWrite, which
// copies the backing arrays the first time after a snapshot was taken
// (copy-on-write). Pure appends never need the copy: a snapshot's
// slice length bounds what it can observe.
type Heap struct {
	rows   []urel.Tuple
	dead   []bool
	live   int
	uncert int // live rows with a non-trivial condition
	// shared is set when a Snapshot was handed out aliasing the
	// current rows/dead arrays. It is atomic because snapshots are
	// taken under the engine's shared read lock — concurrently with
	// each other — while writers (who load and clear it) hold the
	// exclusive lock.
	shared atomic.Bool
	// snapRefs counts this heap's snapshots that are still open
	// (Release not yet called). When it drops to zero a writer may
	// reclaim the shared arrays in place instead of copying: closed
	// snapshots must not be read, so nothing observes the mutation.
	snapRefs atomic.Int64
}

// NewHeap creates an empty in-memory engine.
func NewHeap() *Heap { return &Heap{} }

// Len reports the number of live rows.
func (h *Heap) Len() int { return h.live }

// Certain reports whether every live row is condition-free.
func (h *Heap) Certain() bool { return h.uncert == 0 }

// Append adds a tuple at the next row id. It never fails; the error is
// the Engine interface's.
func (h *Heap) Append(tuple urel.Tuple) (RowID, error) {
	id := RowID(len(h.rows))
	h.rows = append(h.rows, tuple)
	h.dead = append(h.dead, false)
	h.live++
	if len(tuple.Cond) != 0 {
		h.uncert++
	}
	return id, nil
}

// Get returns the tuple at id. ok=false when the row is deleted or the
// id is out of range.
func (h *Heap) Get(id RowID) (urel.Tuple, bool) {
	if id < 0 || int(id) >= len(h.rows) || h.dead[id] {
		return urel.Tuple{}, false
	}
	return h.rows[id], true
}

// prepareWrite makes the row storage exclusively owned before an
// in-place mutation: if a still-open snapshot may alias the backing
// arrays, they are copied first so the snapshot keeps observing the
// frozen state. When every snapshot of this heap has been released,
// the arrays are reclaimed in place — no copy — so only writes that
// race an actually-open snapshot pay for divergence. Append-only
// paths skip this entirely: a snapshot's slice length already fences
// it off from appended rows.
func (h *Heap) prepareWrite() {
	if !h.shared.Load() {
		return
	}
	if h.snapRefs.Load() == 0 {
		// All aliasing snapshots are closed; by contract nothing reads
		// them anymore, so the arrays are exclusively ours again.
		// (A snapshot opened concurrently is impossible: snapshots are
		// taken under the read lock, writers hold the exclusive lock.)
		h.shared.Store(false)
		return
	}
	rows := make([]urel.Tuple, len(h.rows))
	copy(rows, h.rows)
	dead := make([]bool, len(h.dead))
	copy(dead, h.dead)
	h.rows, h.dead = rows, dead
	h.shared.Store(false)
}

// MarkDead sets the tombstone flag of a row, returning its tuple.
func (h *Heap) MarkDead(id RowID, dead bool) (urel.Tuple, error) {
	if id < 0 || int(id) >= len(h.rows) || h.dead[id] == dead {
		if dead {
			return urel.Tuple{}, fmt.Errorf("no live row %d", id)
		}
		return urel.Tuple{}, fmt.Errorf("row %d is not dead", id)
	}
	h.prepareWrite()
	t := h.rows[id]
	h.dead[id] = dead
	if dead {
		h.live--
		if len(t.Cond) != 0 {
			h.uncert--
		}
	} else {
		h.live++
		if len(t.Cond) != 0 {
			h.uncert++
		}
	}
	return t, nil
}

// Replace overwrites a live row in place, returning the previous
// tuple.
func (h *Heap) Replace(id RowID, tuple urel.Tuple) (urel.Tuple, error) {
	if id < 0 || int(id) >= len(h.rows) || h.dead[id] {
		return urel.Tuple{}, fmt.Errorf("no live row %d", id)
	}
	h.prepareWrite()
	old := h.rows[id]
	h.rows[id] = tuple
	if len(old.Cond) != 0 {
		h.uncert--
	}
	if len(tuple.Cond) != 0 {
		h.uncert++
	}
	return old, nil
}

// Truncate tombstones every live row, returning the removed tuples
// with ids for undo.
func (h *Heap) Truncate() ([]RowWithID, error) {
	h.prepareWrite()
	var out []RowWithID
	for i := range h.rows {
		if !h.dead[i] {
			out = append(out, RowWithID{RowID(i), h.rows[i]})
			h.dead[i] = true
		}
	}
	h.live = 0
	h.uncert = 0
	return out, nil
}

// Scan calls fn for every live row in insertion order. Returning a
// non-nil error stops the scan.
func (h *Heap) Scan(fn func(id RowID, tuple urel.Tuple) error) error {
	for i := range h.rows {
		if h.dead[i] {
			continue
		}
		if err := fn(RowID(i), h.rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// Batches returns a pull iterator over the live rows in insertion
// order, handing out up to size tuples per batch under the given
// output schema, keeping only the rows sieve keeps (nil keeps all).
// Tuple structs are copied out of the heap batch by batch, so tuples
// already handed out cannot be reached by later in-place row updates;
// the Data and Cond slices stay shared and immutable by convention.
// The iterator captures the heap's current extent at this call — it is
// valid only while the caller holds the engine lock covering this
// table.
func (h *Heap) Batches(sch *schema.Schema, size int, sieve Sieve) urel.Iterator {
	return newHeapScan(h.rows, h.dead, sch, size, sieve)
}

// PartBatches returns a pull iterator over the part-th of nparts fixed
// row-range shards of the heap (contiguous ranges over the raw row
// array, tombstones included in the split but skipped on read).
// Concatenating every partition's output in partition order yields
// exactly the rows of Batches in the same order, which is what lets a
// parallel scan merge deterministically.
func (h *Heap) PartBatches(sch *schema.Schema, part, nparts, size int, sieve Sieve) urel.Iterator {
	lo, hi := PartRange(len(h.rows), part, nparts)
	return newHeapScan(h.rows[lo:hi], h.dead[lo:hi], sch, size, sieve)
}

// Snapshot returns an immutable view of the heap's current state under
// the given table identity. The caller must hold the engine lock
// covering this table for the duration of the call (read or write);
// the returned view needs no lock at all.
func (h *Heap) Snapshot(name string, sch *schema.Schema) *Snapshot {
	h.snapRefs.Add(1)
	h.shared.Store(true)
	n := len(h.rows)
	return &Snapshot{
		name: name,
		sch:  sch,
		// Full slice expressions clip capacity so even an append
		// through the snapshot (there is none, but belt and braces)
		// could not reach the heap's spare capacity.
		rows:   h.rows[:n:n],
		dead:   h.dead[:n:n],
		live:   h.live,
		uncert: h.uncert,
		refs:   &h.snapRefs,
	}
}

// Rows returns the raw row storage (including tombstones) for
// persistence. Callers must treat it as read-only.
func (h *Heap) Rows() ([]urel.Tuple, []bool) { return h.rows, h.dead }

// LoadRows replaces the heap contents during database load. The
// backing arrays are swapped wholesale, so an earlier snapshot keeps
// its old view and the new storage starts exclusively owned.
func (h *Heap) LoadRows(rows []urel.Tuple, dead []bool) error {
	h.rows = rows
	h.dead = dead
	h.shared.Store(false)
	h.live = 0
	h.uncert = 0
	for i := range rows {
		if !dead[i] {
			h.live++
			if len(rows[i].Cond) != 0 {
				h.uncert++
			}
		}
	}
	return nil
}

// Place writes a row at an explicit id during recovery replay,
// extending the array with dead placeholder rows if id is beyond the
// current extent. Unlike Append it tolerates gaps (compaction drops
// dead rows from segments, so recovered heaps have holes) and
// replays the dead flag directly.
func (h *Heap) Place(id RowID, tuple urel.Tuple, dead bool) {
	for int(id) >= len(h.rows) {
		h.rows = append(h.rows, urel.Tuple{})
		h.dead = append(h.dead, true)
	}
	if !h.dead[id] {
		// Overwriting a live row (latest-wins replay): retire its
		// contribution to the counters first.
		h.live--
		if len(h.rows[id].Cond) != 0 {
			h.uncert--
		}
	}
	h.rows[id] = tuple
	h.dead[id] = dead
	if !dead {
		h.live++
		if len(tuple.Cond) != 0 {
			h.uncert++
		}
	}
}

// PartRange splits n rows into nparts contiguous ranges, spreading the
// remainder over the first n%nparts partitions, and returns the
// half-open range [lo, hi) of partition part. Out-of-range partitions
// get an empty range.
func PartRange(n, part, nparts int) (lo, hi int) {
	if nparts <= 0 || part < 0 || part >= nparts {
		return 0, 0
	}
	chunk, rem := n/nparts, n%nparts
	lo = part*chunk + min(part, rem)
	hi = lo + chunk
	if part < rem {
		hi++
	}
	return lo, hi
}
