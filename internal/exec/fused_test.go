package exec

import (
	"fmt"
	"strings"
	"testing"

	"maybms/internal/exec/live"
	"maybms/internal/exec/trace"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/storage"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// A fused scan can read many windows without producing a batch, so it
// never returns to the cancelIter above it; the sieve itself must check
// the flag before every window.
func TestFusedScanCancelsWithinAWindow(t *testing.T) {
	const windows = 64
	sch := schema.New(schema.Column{Name: "a", Kind: types.KindInt})
	big := urel.New(sch)
	for i := 0; i < windows*urel.DefaultBatchSize; i++ {
		big.Append(urel.Tuple{Data: schema.Tuple{types.NewInt(int64(i))}})
	}
	flag := &live.Flag{}
	sifted := 0
	cat := &hookCatalog{
		memCatalog: &memCatalog{rels: map[string]*urel.Rel{"big": big}},
		after: func(n int) {
			if n == 0 {
				return
			}
			sifted++
			if sifted == 1 {
				flag.Cancel(&live.Error{ID: "fused", Reason: live.ReasonKilled})
			}
		},
	}
	e := New(cat, ws.NewStore())
	e.Cancel = flag
	it, err := e.Open(mustPlan(t, cat, `select a from big where a < 0`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = urel.Drain(it)
	if !live.IsCanceled(err) {
		t.Fatalf("drain error = %v, want the typed cancellation error", err)
	}
	if sifted > 2 {
		t.Fatalf("predicates ran on %d windows after the kill; want at most 2 in all", sifted)
	}
}

// tableCatalog serves storage tables through the batched and
// partitioned scans the engine's own catalogs use.
type tableCatalog map[string]*storage.Table

func (c tableCatalog) table(name string) (*storage.Table, error) {
	t, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

func (c tableCatalog) TableSchema(name string) (*schema.Schema, error) {
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

func (c tableCatalog) TableRel(name string) (*urel.Rel, error) {
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return t.ToRel(), nil
}

func (c tableCatalog) TableCertain(name string) (bool, error) {
	t, err := c.table(name)
	if err != nil {
		return false, err
	}
	return t.Certain(), nil
}

func (c tableCatalog) TableBatches(name string, size int, sieve storage.Sieve) (urel.Iterator, error) {
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return t.Batches(nil, size, sieve), nil
}

func (c tableCatalog) TablePartBatches(name string, part, nparts, size int, sieve storage.Sieve) (urel.Iterator, error) {
	t, err := c.table(name)
	if err != nil {
		return nil, err
	}
	return t.PartBatches(nil, part, nparts, size, sieve), nil
}

func (c tableCatalog) TableLen(name string) (int, error) {
	t, err := c.table(name)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// fusedTables builds t(id, val): 5,000 heap rows with scattered
// tombstones and a 1,500-row dead run (so windows span more raw rows
// than they hold), and o, a transaction overlay over a snapshot of t
// holding its own updates, deletes and inserts.
func fusedTables(t *testing.T) tableCatalog {
	t.Helper()
	sch := schema.New(
		schema.Column{Name: "id", Kind: types.KindInt},
		schema.Column{Name: "val", Kind: types.KindInt},
	)
	row := func(id, val int) urel.Tuple {
		return urel.Tuple{Data: schema.Tuple{types.NewInt(int64(id)), types.NewInt(int64(val))}}
	}
	heap := storage.NewTable("t", sch)
	for i := 0; i < 5000; i++ {
		if _, err := heap.Insert(row(i, (i*37)%211)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		if i%5 == 0 || (i >= 1100 && i < 2600) {
			if _, err := heap.Delete(storage.RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ov := storage.NewTableWith("o", sch, storage.NewOverlay(heap.Snapshot()))
	err := heap.Scan(func(id storage.RowID, tp urel.Tuple) error {
		i := int(tp.Data[0].Int())
		switch {
		case i%13 == 0:
			_, err := ov.Delete(id)
			return err
		case i%11 == 0:
			_, err := ov.Update(id, row(i, (i*37)%211+1))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 5000; i < 5700; i++ {
		if _, err := ov.Insert(row(i, (i*37)%211)); err != nil {
			t.Fatal(err)
		}
	}
	return tableCatalog{"t": heap, "o": ov}
}

// filterStack plans a Filter per conjunct over one scan of table,
// stacked bottom first.
func filterStack(t *testing.T, cat plan.Catalog, table string, conjuncts ...string) (*plan.Scan, *plan.Filter) {
	t.Helper()
	var scan *plan.Scan
	var top *plan.Filter
	for _, c := range conjuncts {
		var f *plan.Filter
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			switch n := n.(type) {
			case *plan.Filter:
				f = n
			case *plan.Scan:
				if scan == nil {
					scan = n
				}
			}
			for _, ch := range plan.Children(n) {
				walk(ch)
			}
		}
		walk(mustPlan(t, cat, "select * from "+table+" where "+c))
		if f == nil {
			t.Fatalf("no filter planned for %q", c)
		}
		var in plan.Node = scan
		if top != nil {
			in = top
		}
		top = &plan.Filter{In: in, Pred: f.Pred}
	}
	return scan, top
}

// firstLiveVal returns the val of the first live row of tab with
// id >= from.
func firstLiveVal(t *testing.T, tab *storage.Table, from int64) int64 {
	t.Helper()
	val := int64(-1)
	tab.Scan(func(_ storage.RowID, tp urel.Tuple) error {
		if val < 0 && tp.Data[0].Int() >= from {
			val = tp.Data[1].Int()
		}
		return nil
	})
	if val < 0 {
		t.Fatalf("no live row with id >= %d", from)
	}
	return val
}

// A stack of filters fused into the scan returns what the recursive
// materialising Run returns through runFilter — the same rows in the
// same order, or the same first error — over tombstones, partition
// boundaries and a transaction overlay, serially and partitioned.
func TestFusedScanMatchesRun(t *testing.T) {
	cat := fusedTables(t)
	for _, table := range []string{"t", "o"} {
		errAbove := firstLiveVal(t, cat[table], 4000)
		stacks := []struct {
			conj    []string
			divZero bool
		}{
			{conj: []string{"val < 100"}},
			{conj: []string{"val < 100", "id % 3 = 1"}},
			{conj: []string{"id >= 500", "val > 20", "id < 4500"}},
			{conj: []string{"id > 1000", "id < 2700"}},
			{conj: []string{"val > 1000"}},
			// An erroring conjunct below and above a selective one.
			{conj: []string{"1 / (val - 57) > 0", "id = 42"}, divZero: true},
			{conj: []string{"id >= 4000", fmt.Sprintf("1 / (val - %d) > 0", errAbove)}, divZero: true},
			{conj: []string{"id >= 4000", "1 / (val - 57) > 0", "id < 4100"}},
		}
		for _, st := range stacks {
			scan, top := filterStack(t, cat, table, st.conj...)
			store := ws.NewStore()
			want, wantErr := New(cat, store).Run(top)
			if st.divZero && (wantErr == nil || !strings.Contains(wantErr.Error(), "division by zero")) {
				t.Fatalf("%s %v: Run error %v, want division by zero", table, st.conj, wantErr)
			}
			for _, par := range []int{1, 2, 3} {
				name := fmt.Sprintf("%s/%s/par%d", table, strings.Join(st.conj, " and "), par)
				e := New(cat, store)
				e.Parallelism = par
				e.MinPartitionRows = 16
				e.Tracer = trace.New()
				it, err := e.Open(top)
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				got, gotErr := urel.Drain(it)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Errorf("%s: error %v, Run's %v", name, gotErr, wantErr)
					continue
				}
				if gotErr == nil && renderRel(got) != renderRel(want) {
					t.Errorf("%s: fused scan diverged from Run:\n got %d rows\nwant %d rows", name, got.Len(), want.Len())
				}
				if st, ok := e.Tracer.Lookup(scan); !ok || len(st.Extras()) == 0 || st.Extras()[0] != (trace.Extra{Name: "fused", Value: 1}) {
					t.Errorf("%s: scan not marked fused", name)
				}
			}
		}
	}
}
