package storage

import (
	"reflect"
	"testing"

	"maybms/internal/lineage"
	"maybms/internal/urel"
)

// drainData pulls an iterator to exhaustion and returns the first
// column of every tuple.
func drainData(t *testing.T, it urel.Iterator) []int64 {
	t.Helper()
	rel, err := urel.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, 0, len(rel.Tuples))
	for _, tp := range rel.Tuples {
		out = append(out, tp.Data[0].Int())
	}
	return out
}

// TestSnapshotImmuneToWrites: a snapshot keeps serving the frozen
// state through every kind of live mutation — insert (append),
// update and delete (in-place, copy-on-write), undelete, truncate.
func TestSnapshotImmuneToWrites(t *testing.T) {
	tb := testTable()
	ids := make([]RowID, 3)
	for i, r := range []urel.Tuple{row(1, "a"), row(2, "b"), row(3, "c")} {
		id, err := tb.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	tb.Delete(ids[2])

	snap := tb.Snapshot()
	want := []int64{1, 2}
	if got := drainData(t, snap.Batches(nil, 1, nil)); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot rows %v, want %v", got, want)
	}
	if snap.Len() != 2 || !snap.Certain() {
		t.Fatalf("snapshot len=%d certain=%v", snap.Len(), snap.Certain())
	}

	// Mutate the live table in every way.
	if _, err := tb.Insert(row(4, "d")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Update(ids[0], urel.Tuple{
		Data: row(100, "A").Data,
		Cond: mustCond(t, lineage.Lit{Var: 0, Val: 1}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Undelete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}

	if got := drainData(t, snap.Batches(nil, 2, nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot drifted under writes: %v, want %v", got, want)
	}
	if snap.Len() != 2 || !snap.Certain() {
		t.Errorf("snapshot counters drifted: len=%d certain=%v", snap.Len(), snap.Certain())
	}
	if rel := snap.ToRel(); rel.Len() != 2 || rel.Tuples[0].Data[0].Int() != 1 {
		t.Errorf("snapshot ToRel has %d rows (first %v), want 2 starting at 1", rel.Len(), rel.Tuples[0].Data[0])
	}

	// The live table reflects all of it: {100(uncertain), 3, 4}.
	live := drainData(t, tb.Batches(nil, 0, nil))
	if !reflect.DeepEqual(live, []int64{100, 3, 4}) {
		t.Errorf("live rows %v, want [100 3 4]", live)
	}
	if tb.Certain() {
		t.Error("live table should be uncertain after the conditioned update")
	}

	// Truncate after a fresh snapshot: the older snapshot and the new
	// one each keep their own view.
	snap2 := tb.Snapshot()
	tb.Truncate()
	if got := drainData(t, snap2.Batches(nil, 0, nil)); !reflect.DeepEqual(got, []int64{100, 3, 4}) {
		t.Errorf("second snapshot drifted after truncate: %v", got)
	}
	if got := drainData(t, snap.Batches(nil, 0, nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("first snapshot drifted after truncate: %v", got)
	}
	if tb.Len() != 0 {
		t.Errorf("live len after truncate: %d", tb.Len())
	}
}

func mustCond(t *testing.T, lits ...lineage.Lit) lineage.Cond {
	t.Helper()
	c, ok := lineage.NewCond(lits...)
	if !ok {
		t.Fatal("inconsistent condition")
	}
	return c
}

// TestSnapshotSharingIsLazy: taking a snapshot is O(1) aliasing; the
// first in-place write after it copies the arrays exactly once, and
// pure appends never copy.
func TestSnapshotSharingIsLazy(t *testing.T) {
	tb := testTable()
	for i := int64(0); i < 10; i++ {
		tb.Insert(row(i, "x"))
	}
	h := tb.Engine().(*Heap)
	snap := tb.Snapshot()
	if !h.shared.Load() {
		t.Fatal("table not marked shared after Snapshot")
	}
	// Appends do not trigger the copy: the snapshot's slice length
	// fences it off.
	tb.Insert(row(10, "x"))
	if !h.shared.Load() {
		t.Error("append cleared the shared flag (unnecessary copy)")
	}
	// First in-place write copies and clears the flag.
	if _, err := tb.Delete(RowID(0)); err != nil {
		t.Fatal(err)
	}
	if h.shared.Load() {
		t.Error("in-place write left the storage shared")
	}
	if got := drainData(t, snap.Batches(nil, 0, nil)); len(got) != 10 || got[0] != 0 {
		t.Errorf("snapshot sees %d rows starting at %v, want 10 starting at 0", len(got), got[0])
	}
}

// TestReleasedSnapshotSkipsCopy: once every snapshot of a table is
// released, an in-place write reclaims the shared arrays instead of
// copying — reads that come and go do not tax later writers.
func TestReleasedSnapshotSkipsCopy(t *testing.T) {
	tb := testTable()
	for i := int64(0); i < 5; i++ {
		tb.Insert(row(i, "x"))
	}
	h := tb.Engine().(*Heap)
	snap := tb.Snapshot()
	snap.Release()
	snap.Release() // idempotent: must not double-decrement
	before := &h.rows[0]
	if _, err := tb.Delete(RowID(1)); err != nil {
		t.Fatal(err)
	}
	if &h.rows[0] != before {
		t.Error("write copied the arrays although no snapshot was open")
	}
	if h.shared.Load() {
		t.Error("shared flag not reclaimed after the write")
	}
	// A still-open snapshot keeps forcing the copy.
	snap2 := tb.Snapshot()
	defer snap2.Release()
	if _, err := tb.Delete(RowID(2)); err != nil {
		t.Fatal(err)
	}
	if &h.rows[0] == before {
		t.Error("write mutated arrays aliased by an open snapshot")
	}
	if got := drainData(t, snap2.Batches(nil, 0, nil)); len(got) != 4 {
		t.Errorf("open snapshot sees %d rows, want 4", len(got))
	}
}
