package storage

import (
	"fmt"
	"sort"
	"sync/atomic"

	"maybms/internal/schema"
	"maybms/internal/urel"
)

// Overlay is a private write-set buffer over an immutable Snapshot:
// the storage engine an optimistic transaction sees for a table it
// writes. Reads compose the base snapshot with the transaction's own
// mutations; writes never touch the shared arrays. Base rows keep
// their snapshot row ids — an in-place update lands in mods, a delete
// in a lazily-copied tombstone array — and appended rows take ids
// beyond the base extent, so the id space looks exactly like a live
// heap's. At commit the owning transaction replays the recorded diff
// (Diff, Appended) against the live table under the exclusive lock;
// on rollback the overlay is simply dropped.
//
// The touched set doubles as the transaction's row-level write claim
// for first-committer-wins validation: it names precisely the base
// rows whose live versions commit will overwrite.
//
// Like every engine, an Overlay is single-writer: the transaction's
// statement mutex serialises mutations, while batch readers (the
// parallel executor's workers) only run inside a statement, when
// nothing mutates.
type Overlay struct {
	base    *Snapshot
	baseLen int
	// dead overrides the base tombstones once the transaction deletes
	// a base row; nil until then (reads fall through to base.dead).
	dead []bool
	// mods holds in-place replacements of live base rows.
	mods map[RowID]urel.Tuple
	// added rows occupy ids baseLen .. baseLen+len(added)-1.
	added     []urel.Tuple
	addedDead []bool
	live      int
	uncert    int
	// touched records the base rows this overlay updated or deleted,
	// in write order.
	touched map[RowID]bool
	// snapRefs counts open snapshots of the overlay itself (these
	// materialise, so they never pin the base arrays).
	snapRefs atomic.Int64
}

// NewOverlay returns an empty write-set overlay on base. The base
// snapshot must stay unreleased for the overlay's read lifetime; the
// commit diff accessors remain valid after release (they only read
// overlay-owned state).
func NewOverlay(base *Snapshot) *Overlay {
	return &Overlay{
		base:    base,
		baseLen: len(base.rows),
		live:    base.live,
		uncert:  base.uncert,
	}
}

// Base returns the snapshot the overlay reads through.
func (o *Overlay) Base() *Snapshot { return o.base }

// BaseLen reports the base snapshot's raw extent: ids below it are
// base rows, ids at or beyond it are overlay appends.
func (o *Overlay) BaseLen() int { return o.baseLen }

func (o *Overlay) size() int { return o.baseLen + len(o.added) }

func (o *Overlay) deadAt(i int) bool {
	if i < o.baseLen {
		if o.dead != nil {
			return o.dead[i]
		}
		return o.base.dead[i]
	}
	return o.addedDead[i-o.baseLen]
}

func (o *Overlay) rowAt(i int) urel.Tuple {
	if i < o.baseLen {
		if len(o.mods) != 0 {
			if t, ok := o.mods[RowID(i)]; ok {
				return t
			}
		}
		return o.base.rows[i]
	}
	return o.added[i-o.baseLen]
}

func (o *Overlay) touch(id RowID) {
	if o.touched == nil {
		o.touched = map[RowID]bool{}
	}
	o.touched[id] = true
}

// Len reports the number of live rows in the composed view.
func (o *Overlay) Len() int { return o.live }

// Certain reports whether every live row in the composed view is
// condition-free.
func (o *Overlay) Certain() bool { return o.uncert == 0 }

// Append adds a tuple at the next row id of the composed view.
func (o *Overlay) Append(tuple urel.Tuple) (RowID, error) {
	id := RowID(o.size())
	o.added = append(o.added, tuple)
	o.addedDead = append(o.addedDead, false)
	o.live++
	if len(tuple.Cond) != 0 {
		o.uncert++
	}
	return id, nil
}

// Get returns the live tuple at id in the composed view.
func (o *Overlay) Get(id RowID) (urel.Tuple, bool) {
	i := int(id)
	if id < 0 || i >= o.size() || o.deadAt(i) {
		return urel.Tuple{}, false
	}
	return o.rowAt(i), true
}

// MarkDead sets the tombstone flag of a row. Killing a base row copies
// the base tombstone array once and records the row in the write set.
func (o *Overlay) MarkDead(id RowID, dead bool) (urel.Tuple, error) {
	i := int(id)
	if id < 0 || i >= o.size() || o.deadAt(i) == dead {
		if dead {
			return urel.Tuple{}, fmt.Errorf("no live row %d", id)
		}
		return urel.Tuple{}, fmt.Errorf("row %d is not dead", id)
	}
	t := o.rowAt(i)
	if i < o.baseLen {
		if o.dead == nil {
			o.dead = make([]bool, o.baseLen)
			copy(o.dead, o.base.dead)
		}
		o.dead[i] = dead
		o.touch(id)
	} else {
		o.addedDead[i-o.baseLen] = dead
	}
	if dead {
		o.live--
		if len(t.Cond) != 0 {
			o.uncert--
		}
	} else {
		o.live++
		if len(t.Cond) != 0 {
			o.uncert++
		}
	}
	return t, nil
}

// Replace overwrites a live row in place. Base rows land in the mods
// map and join the write set; the base arrays are never written.
func (o *Overlay) Replace(id RowID, tuple urel.Tuple) (urel.Tuple, error) {
	i := int(id)
	if id < 0 || i >= o.size() || o.deadAt(i) {
		return urel.Tuple{}, fmt.Errorf("no live row %d", id)
	}
	old := o.rowAt(i)
	if i < o.baseLen {
		if o.mods == nil {
			o.mods = map[RowID]urel.Tuple{}
		}
		o.mods[id] = tuple
		o.touch(id)
	} else {
		o.added[i-o.baseLen] = tuple
	}
	if len(old.Cond) != 0 {
		o.uncert--
	}
	if len(tuple.Cond) != 0 {
		o.uncert++
	}
	return old, nil
}

// Truncate tombstones every live row of the composed view.
func (o *Overlay) Truncate() ([]RowWithID, error) {
	var out []RowWithID
	for i, n := 0, o.size(); i < n; i++ {
		if o.deadAt(i) {
			continue
		}
		t, err := o.MarkDead(RowID(i), true)
		if err != nil {
			return out, err
		}
		out = append(out, RowWithID{RowID(i), t})
	}
	return out, nil
}

// Scan calls fn for every live row of the composed view in insertion
// order.
func (o *Overlay) Scan(fn func(id RowID, tuple urel.Tuple) error) error {
	for i, n := 0, o.size(); i < n; i++ {
		if o.deadAt(i) {
			continue
		}
		if err := fn(RowID(i), o.rowAt(i)); err != nil {
			return err
		}
	}
	return nil
}

// Batches returns a pull iterator over the composed view's live rows
// in insertion order, keeping only the rows sieve keeps (nil keeps
// all).
func (o *Overlay) Batches(sch *schema.Schema, size int, sieve Sieve) urel.Iterator {
	return newScanIter(&overlayWindows{o: o, end: o.size()}, sch, size, sieve)
}

// PartBatches returns the part-th of nparts contiguous row-range
// shards of the composed view; concatenating all partitions in order
// reproduces Batches exactly.
func (o *Overlay) PartBatches(sch *schema.Schema, part, nparts, size int, sieve Sieve) urel.Iterator {
	lo, hi := PartRange(o.size(), part, nparts)
	return newScanIter(&overlayWindows{o: o, pos: lo, end: hi}, sch, size, sieve)
}

// Snapshot materialises the composed view into an ordinary immutable
// snapshot. Unlike heap snapshots it copies the effective arrays, so
// it neither pins the base nor observes later overlay writes.
func (o *Overlay) Snapshot(name string, sch *schema.Schema) *Snapshot {
	rows, dead := o.Rows()
	o.snapRefs.Add(1)
	return &Snapshot{
		name:   name,
		sch:    sch,
		rows:   rows,
		dead:   dead,
		live:   o.live,
		uncert: o.uncert,
		refs:   &o.snapRefs,
	}
}

// Rows materialises the composed raw row storage (including
// tombstones). Callers must treat the tuples as read-only.
func (o *Overlay) Rows() ([]urel.Tuple, []bool) {
	n := o.size()
	rows := make([]urel.Tuple, n)
	dead := make([]bool, n)
	for i := 0; i < n; i++ {
		rows[i] = o.rowAt(i)
		dead[i] = o.deadAt(i)
	}
	return rows, dead
}

// LoadRows is unsupported: an overlay only ever grows out of its base
// snapshot plus transaction writes.
func (o *Overlay) LoadRows(rows []urel.Tuple, dead []bool) error {
	return fmt.Errorf("storage: cannot load rows into a transaction overlay")
}

// Touched returns the base row ids this overlay updated or deleted,
// ascending — the transaction's row-level write claim.
func (o *Overlay) Touched() []RowID {
	out := make([]RowID, 0, len(o.touched))
	for id := range o.touched {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Inserted reports whether the transaction appended any rows to this
// table (its insert claim), whether or not they survived.
func (o *Overlay) Inserted() bool { return len(o.added) > 0 }

// Diff invokes fn for every base row the overlay wrote, in ascending
// id order: dead reports a deletion, otherwise tuple is the
// replacement to write in place. Valid after the base is released —
// it reads only overlay-owned state.
func (o *Overlay) Diff(fn func(id RowID, dead bool, tuple urel.Tuple) error) error {
	for _, id := range o.Touched() {
		if o.dead != nil && o.dead[id] {
			if err := fn(id, true, urel.Tuple{}); err != nil {
				return err
			}
			continue
		}
		t, ok := o.mods[id]
		if !ok {
			// Deleted then resurrected without replacement: the row is
			// back to its base image, nothing to write.
			continue
		}
		if err := fn(id, false, t); err != nil {
			return err
		}
	}
	return nil
}

// Appended invokes fn for every overlay-appended row still live, in
// insertion order. Valid after the base is released.
func (o *Overlay) Appended(fn func(tuple urel.Tuple) error) error {
	for i, t := range o.added {
		if o.addedDead[i] {
			continue
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// overlayWindows reads a contiguous index range of the composed view,
// skipping tombstones. The composed rows do not lie in one array (an
// update lives in mods, an insert in added), so each window's live
// rows are gathered into a buffer the source reuses.
type overlayWindows struct {
	o   *Overlay
	pos int
	end int
	buf []urel.Tuple
}

func (w *overlayWindows) window(sel []int32, size int) ([]urel.Tuple, []int32) {
	w.buf = w.buf[:0]
	for ; w.pos < w.end && len(w.buf) < size; w.pos++ {
		if w.o.deadAt(w.pos) {
			continue
		}
		sel = append(sel, int32(len(w.buf)))
		w.buf = append(w.buf, w.o.rowAt(w.pos))
	}
	return w.buf, sel
}
