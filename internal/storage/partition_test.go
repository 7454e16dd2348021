package storage

import (
	"testing"

	"maybms/internal/schema"
	"maybms/internal/types"
	"maybms/internal/urel"
)

func TestPartRange(t *testing.T) {
	for _, c := range []struct {
		n, nparts int
	}{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {100, 7}, {1024, 1}, {10, 16},
	} {
		covered := 0
		prevHi := 0
		for p := 0; p < c.nparts; p++ {
			lo, hi := PartRange(c.n, p, c.nparts)
			if lo != prevHi {
				t.Errorf("n=%d nparts=%d part %d: lo %d, want contiguous %d", c.n, c.nparts, p, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("n=%d nparts=%d part %d: hi %d < lo %d", c.n, c.nparts, p, hi, lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n || prevHi != c.n {
			t.Errorf("n=%d nparts=%d: partitions cover %d rows ending at %d", c.n, c.nparts, covered, prevHi)
		}
	}
	if lo, hi := PartRange(10, -1, 4); lo != 0 || hi != 0 {
		t.Errorf("negative part: got [%d,%d)", lo, hi)
	}
	if lo, hi := PartRange(10, 4, 4); lo != 0 || hi != 0 {
		t.Errorf("out-of-range part: got [%d,%d)", lo, hi)
	}
}

// partitioned scans concatenated in partition order must reproduce the
// serial scan byte for byte, tombstones and all.
func TestPartBatchesConcatEqualsBatches(t *testing.T) {
	sch := schema.New(schema.Column{Name: "a", Kind: types.KindInt})
	tbl := NewTable("t", sch)
	for i := 0; i < 533; i++ {
		id, err := tbl.Insert(urel.Tuple{Data: schema.Tuple{types.NewInt(int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if _, err := tbl.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial, err := urel.Drain(tbl.Batches(nil, 64, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, nparts := range []int{1, 2, 3, 8, 600} {
		var got []urel.Tuple
		for p := 0; p < nparts; p++ {
			part, err := urel.Drain(tbl.PartBatches(nil, p, nparts, 64, nil))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, part.Tuples...)
		}
		if len(got) != len(serial.Tuples) {
			t.Fatalf("nparts=%d: %d rows, want %d", nparts, len(got), len(serial.Tuples))
		}
		for i := range got {
			if got[i].Data[0].Int() != serial.Tuples[i].Data[0].Int() {
				t.Fatalf("nparts=%d row %d: %v want %v", nparts, i, got[i].Data, serial.Tuples[i].Data)
			}
		}
	}

	// The snapshot view partitions identically and keeps serving the
	// frozen extent after further appends.
	snap := tbl.Snapshot()
	defer snap.Release()
	tbl.Insert(urel.Tuple{Data: schema.Tuple{types.NewInt(9999)}})
	var got []urel.Tuple
	for p := 0; p < 4; p++ {
		part, err := urel.Drain(snap.PartBatches(nil, p, 4, 64, nil))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, part.Tuples...)
	}
	if len(got) != len(serial.Tuples) {
		t.Fatalf("snapshot partitions: %d rows, want %d (frozen extent)", len(got), len(serial.Tuples))
	}
}
