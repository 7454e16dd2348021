package storage

import (
	"sync/atomic"

	"maybms/internal/schema"
	"maybms/internal/urel"
)

// Snapshot is an immutable point-in-time view of a table: a frozen
// {rows, dead, live, uncert} quadruple that can be read — scanned,
// batched, materialised — without any lock, long after the live table
// has moved on. Taking one is O(1): the view aliases the engine's
// backing arrays, and the engine's writers copy-on-write before any
// in-place mutation (appends are fenced off by the view's slice
// length). A snapshot therefore costs no memory of its own until a
// writer actually mutates the shared prefix, at which point the old
// arrays survive for as long as the snapshot does. Call Release when
// done: once every snapshot of a table is released, writers reclaim
// the shared arrays in place instead of copying. A released snapshot
// must not be read.
//
// Both engines hand out the same Snapshot type: the disk engine keeps
// a resident heap mirror, so its snapshots are the heap's — which is
// what keeps reads byte-identical across engines by construction.
type Snapshot struct {
	name     string
	sch      *schema.Schema
	rows     []urel.Tuple
	dead     []bool
	live     int
	uncert   int
	refs     *atomic.Int64
	released atomic.Bool
}

// Release drops the snapshot's claim on the engine's shared arrays;
// idempotent, callable from any goroutine with no lock. After Release
// the snapshot must not be read: a writer may mutate the arrays in
// place once no open snapshot remains.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.refs.Add(-1)
	}
}

// Name returns the table name.
func (s *Snapshot) Name() string { return s.name }

// Schema returns the table schema. Callers must not mutate it.
func (s *Snapshot) Schema() *schema.Schema { return s.sch }

// Len reports the number of live rows at snapshot time.
func (s *Snapshot) Len() int { return s.live }

// Certain reports whether every live row was condition-free at
// snapshot time.
func (s *Snapshot) Certain() bool { return s.uncert == 0 }

// Batches returns a pull iterator over the snapshot's live rows in
// insertion order, exactly like Table.Batches — except it is valid
// without any lock, indefinitely.
func (s *Snapshot) Batches(sch *schema.Schema, size int, sieve Sieve) urel.Iterator {
	if sch == nil {
		sch = s.sch
	}
	return newHeapScan(s.rows, s.dead, sch, size, sieve)
}

// PartBatches returns a pull iterator over the part-th of nparts fixed
// row-range shards of the frozen heap, exactly like Table.PartBatches
// — except it is valid without any lock, indefinitely. Concatenating
// the partitions in partition order reproduces Batches exactly.
func (s *Snapshot) PartBatches(sch *schema.Schema, part, nparts, size int, sieve Sieve) urel.Iterator {
	if sch == nil {
		sch = s.sch
	}
	lo, hi := PartRange(len(s.rows), part, nparts)
	return newHeapScan(s.rows[lo:hi], s.dead[lo:hi], sch, size, sieve)
}

// ToRel materialises the snapshot's live rows as a U-relation (shared
// tuples; the caller must not mutate them).
func (s *Snapshot) ToRel() *urel.Rel {
	r := urel.New(s.sch)
	for i := range s.rows {
		if s.dead[i] {
			continue
		}
		r.Append(s.rows[i])
	}
	return r
}
