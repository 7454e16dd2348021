package db

import (
	"fmt"
	"strings"
	"testing"

	"maybms/internal/exec/trace"
	"maybms/internal/plan"
	"maybms/internal/sql"
	"maybms/internal/storage"
	"maybms/internal/urel"
)

// fusedRow is one row of the fused-scan table: its raw position in the
// heap, whether it is live, and its values.
type fusedRow struct {
	live      bool
	k, xv, yv int64
}

// fusedConjuncts are the three conjuncts of the test query, keyed by
// the column each one reads, as Go predicates over the table's rows.
var fusedConjuncts = map[string]func(r fusedRow) bool{
	"k":  func(r fusedRow) bool { return r.k >= 700 },
	"xv": func(r fusedRow) bool { return r.xv < 150 },
	"yv": func(r fusedRow) bool { return r.yv%4 != 1 },
}

// buildFusedDB fills r(k, xv, yv) with 6,000 rows and deletes a
// scattered tenth plus a dead run of 1,300, so windows span more raw
// rows than they hold and partition shards split unevenly.
func buildFusedDB(t *testing.T, d *Database, parallelism int) []fusedRow {
	t.Helper()
	d.SetParallelism(parallelism)
	mustRun(t, d, `create table r (k int, xv int, yv int)`)
	rows := make([]fusedRow, 6000)
	var b strings.Builder
	for lo := 0; lo < len(rows); lo += 1000 {
		b.Reset()
		b.WriteString(`insert into r values `)
		for i := lo; i < lo+1000; i++ {
			rows[i] = fusedRow{live: true, k: int64(i), xv: int64(i*37) % 211, yv: int64(i*13) % 29}
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d)", rows[i].k, rows[i].xv, rows[i].yv)
		}
		mustRun(t, d, b.String())
	}
	mustRun(t, d, `delete from r where k % 10 = 3 or (k >= 2000 and k < 3300)`)
	for i := range rows {
		if rows[i].k%10 == 3 || (rows[i].k >= 2000 && rows[i].k < 3300) {
			rows[i].live = false
		}
	}
	return rows
}

// nodeCounts is one plan node's rows= and batches=.
type nodeCounts struct{ rows, batches int64 }

// expectFused derives, from the data alone, the counts a filter stack
// over a scan reports: each partition's shard of the raw heap is read
// in windows of up to one batch of live rows, and every node counts a
// batch for each window in which rows reach it.
func expectFused(rows []fusedRow, nparts int, preds []func(fusedRow) bool) (scan nodeCounts, filters []nodeCounts) {
	filters = make([]nodeCounts, len(preds))
	for part := 0; part < nparts; part++ {
		lo, hi := storage.PartRange(len(rows), part, nparts)
		var window []fusedRow
		flush := func() {
			if len(window) == 0 {
				return
			}
			scan.rows += int64(len(window))
			scan.batches++
			sel := window
			for i, p := range preds {
				var kept []fusedRow
				for _, r := range sel {
					if p(r) {
						kept = append(kept, r)
					}
				}
				if sel = kept; len(sel) == 0 {
					break
				}
				filters[i].rows += int64(len(sel))
				filters[i].batches++
			}
			window = window[:0]
		}
		for _, r := range rows[lo:hi] {
			if r.live {
				if window = append(window, r); len(window) == urel.DefaultBatchSize {
					flush()
				}
			}
		}
		flush()
	}
	return scan, filters
}

// EXPLAIN ANALYZE stays honest over a fused scan: with the three
// conjuncts of a range query fused into the scan, the Scan and every
// Filter report the rows and batches a chain of filter operators
// would, derived here from the data, at parallelism 1 and 2 on both
// engines; the Scan and inner Filters carry fused=1; and traced rows
// are byte-identical to untraced ones.
func TestExplainAnalyzeFusedScanCounts(t *testing.T) {
	queries := []string{
		`select k, xv from r where k >= 700 and xv < 150 and yv % 4 <> 1`,
		`select count(*), sum(xv) from r where k >= 700 and xv < 150 and yv % 4 <> 1`,
	}
	for _, engine := range []string{"memory", "disk"} {
		for _, par := range []int{1, 2} {
			d := New()
			if engine == "disk" {
				var err error
				if d, err = Open(Options{DataDir: t.TempDir()}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() })
			}
			rows := buildFusedDB(t, d, par)
			for _, q := range queries {
				name := fmt.Sprintf("%s/par%d/%s", engine, par, q)
				untraced := relString(mustRun(t, d, q).Rel)
				stmts, err := sql.ParseAll(q)
				if err != nil {
					t.Fatal(err)
				}
				tr := trace.New()
				res, root, err := d.RunStatementTraced(stmts[0], tr)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := relString(res.Rel); got != untraced {
					t.Errorf("%s: traced rows differ from untraced\n got: %s\nwant: %s", name, got, untraced)
				}
				checkFusedCounts(t, name, tr, root, rows, par)
			}
		}
	}
}

// checkFusedCounts finds the filter stack over the scan under root and
// checks every node of it against expectFused.
func checkFusedCounts(t *testing.T, name string, tr *trace.Trace, root plan.Node, rows []fusedRow, nparts int) {
	t.Helper()
	var stack []*plan.Filter // top first
	n := root
	for {
		if f, ok := n.(*plan.Filter); ok {
			stack = append(stack, f)
		} else if len(stack) > 0 {
			break
		}
		ch := plan.Children(n)
		if len(ch) != 1 {
			t.Fatalf("%s: no filter stack over a scan in the plan:\n%s", name, plan.Explain(root))
		}
		n = ch[0]
	}
	scan, ok := n.(*plan.Scan)
	if !ok || len(stack) != 3 {
		t.Fatalf("%s: want 3 filters over a scan, got %d over %T:\n%s", name, len(stack), n, plan.Explain(root))
	}
	preds := make([]func(fusedRow) bool, len(stack))
	for i, f := range stack {
		src := plan.ExprString(f.Src)
		for col, p := range fusedConjuncts {
			if strings.Contains(src, "."+col+" ") {
				preds[len(stack)-1-i] = p
			}
		}
		if preds[len(stack)-1-i] == nil {
			t.Fatalf("%s: unrecognised conjunct %s", name, src)
		}
	}
	wantScan, wantFilters := expectFused(rows, nparts, preds)
	check := func(label string, n plan.Node, want nodeCounts, fused bool) {
		st, ok := tr.Lookup(n)
		if !ok {
			t.Errorf("%s: %s never executed", name, label)
			return
		}
		if got := (nodeCounts{st.RowsOut.Load(), st.Batches.Load()}); got != want {
			t.Errorf("%s: %s rows/batches = %d/%d, want %d/%d", name, label, got.rows, got.batches, want.rows, want.batches)
		}
		marked := false
		for _, ex := range st.Extras() {
			marked = marked || ex == (trace.Extra{Name: "fused", Value: 1})
		}
		if marked != fused {
			t.Errorf("%s: %s fused=1 is %v, want %v", name, label, marked, fused)
		}
	}
	check("Scan", scan, wantScan, true)
	for i, f := range stack {
		k := len(stack) - 1 - i
		check(fmt.Sprintf("Filter %s", plan.ExprString(f.Src)), f, wantFilters[k], i > 0)
	}
}
