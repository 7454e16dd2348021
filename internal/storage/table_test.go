package storage

import (
	"testing"

	"maybms/internal/lineage"
	"maybms/internal/schema"
	"maybms/internal/types"
	"maybms/internal/urel"
)

func testTable() *Table {
	return NewTable("t", schema.New(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "b", Kind: types.KindText},
	))
}

func row(a int64, b string) urel.Tuple {
	return urel.Tuple{Data: schema.Tuple{types.NewInt(a), types.NewText(b)}}
}

func TestInsertGetDelete(t *testing.T) {
	tb := testTable()
	id1, err := tb.Insert(row(1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := tb.Insert(row(2, "y"))
	if tb.Len() != 2 {
		t.Fatalf("len %d", tb.Len())
	}
	got, ok := tb.Get(id1)
	if !ok || got.Data[0].Int() != 1 {
		t.Errorf("get: %v %v", got, ok)
	}
	old, err := tb.Delete(id1)
	if err != nil || old.Data[1].Text() != "x" {
		t.Errorf("delete: %v %v", old, err)
	}
	if _, ok := tb.Get(id1); ok {
		t.Error("deleted row still visible")
	}
	if _, err := tb.Delete(id1); err == nil {
		t.Error("double delete should fail")
	}
	if err := tb.Undelete(id1); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Errorf("len after undelete: %d", tb.Len())
	}
	if err := tb.Undelete(id2); err == nil {
		t.Error("undelete of live row should fail")
	}
}

func TestTypeEnforcement(t *testing.T) {
	tb := testTable()
	if _, err := tb.Insert(row(1, "x")); err != nil {
		t.Fatal(err)
	}
	bad := urel.Tuple{Data: schema.Tuple{types.NewText("no"), types.NewText("x")}}
	if _, err := tb.Insert(bad); err == nil {
		t.Error("kind mismatch should fail")
	}
	short := urel.Tuple{Data: schema.Tuple{types.NewInt(1)}}
	if _, err := tb.Insert(short); err == nil {
		t.Error("arity mismatch should fail")
	}
	withNull := urel.Tuple{Data: schema.Tuple{types.Null(), types.Null()}}
	if _, err := tb.Insert(withNull); err != nil {
		t.Errorf("NULLs fit any column: %v", err)
	}
	// INT widens into FLOAT columns without mutating the caller's tuple.
	ft := NewTable("f", schema.New(schema.Column{Name: "x", Kind: types.KindFloat}))
	orig := schema.Tuple{types.NewInt(3)}
	if _, err := ft.Insert(urel.Tuple{Data: orig}); err != nil {
		t.Fatal(err)
	}
	if orig[0].Kind() != types.KindInt {
		t.Error("widening must not mutate input")
	}
	got, _ := ft.Get(0)
	if got.Data[0].Kind() != types.KindFloat {
		t.Error("stored value should be FLOAT")
	}
}

func TestUpdate(t *testing.T) {
	tb := testTable()
	id, _ := tb.Insert(row(1, "x"))
	prev, err := tb.Update(id, row(9, "z"))
	if err != nil || prev.Data[0].Int() != 1 {
		t.Fatalf("update: %v %v", prev, err)
	}
	got, _ := tb.Get(id)
	if got.Data[0].Int() != 9 {
		t.Errorf("after update: %v", got)
	}
	if _, err := tb.Update(RowID(99), row(0, "")); err == nil {
		t.Error("update of missing row should fail")
	}
}

func TestCertainTracking(t *testing.T) {
	tb := testTable()
	if !tb.Certain() {
		t.Error("empty table is certain")
	}
	cond, _ := lineage.NewCond(lineage.Lit{Var: 0, Val: 1})
	id, _ := tb.Insert(urel.Tuple{Data: schema.Tuple{types.NewInt(1), types.NewText("x")}, Cond: cond})
	if tb.Certain() {
		t.Error("conditioned row makes table uncertain")
	}
	tb.Delete(id)
	if !tb.Certain() {
		t.Error("deleting the conditioned row restores certainty")
	}
	tb.Undelete(id)
	if tb.Certain() {
		t.Error("undelete restores uncertainty")
	}
	tb.Update(id, row(1, "y"))
	if !tb.Certain() {
		t.Error("updating to unconditioned restores certainty")
	}
}

func TestTruncateAndScan(t *testing.T) {
	tb := testTable()
	tb.Insert(row(1, "a"))
	id, _ := tb.Insert(row(2, "b"))
	tb.Insert(row(3, "c"))
	tb.Delete(id)
	var seen []int64
	tb.Scan(func(_ RowID, tup urel.Tuple) error {
		seen = append(seen, tup.Data[0].Int())
		return nil
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Errorf("scan: %v", seen)
	}
	removed, _ := tb.Truncate()
	if len(removed) != 2 || tb.Len() != 0 {
		t.Errorf("truncate: %v len=%d", removed, tb.Len())
	}
}

func TestToRelAndLoadRows(t *testing.T) {
	tb := testTable()
	tb.Insert(row(1, "a"))
	id, _ := tb.Insert(row(2, "b"))
	tb.Delete(id)
	rel := tb.ToRel()
	if rel.Len() != 1 {
		t.Errorf("torel: %d", rel.Len())
	}
	rows, dead := tb.Rows()
	tb2 := testTable()
	tb2.LoadRows(rows, dead)
	if tb2.Len() != 1 {
		t.Errorf("loadrows len: %d", tb2.Len())
	}
	if got, ok := tb2.Get(0); !ok || got.Data[1].Text() != "a" {
		t.Errorf("loadrows row 0: %v %v", got, ok)
	}
}
