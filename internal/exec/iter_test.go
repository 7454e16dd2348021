package exec

import (
	"io"
	"strings"
	"testing"

	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/storage"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// openSQL plans src and opens it on the streaming executor.
func openSQL(t *testing.T, cat plan.Catalog, store *ws.Store, src string) (*urel.Rel, error) {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	n, err := plan.Build(st.(*sql.QueryStmt).Query, cat)
	if err != nil {
		return nil, err
	}
	it, err := New(cat, store).Open(n)
	if err != nil {
		return nil, err
	}
	return urel.Drain(it)
}

// renderRel renders data and conditions for exact comparison.
func renderRel(r *urel.Rel) string {
	var b strings.Builder
	for _, tup := range r.Tuples {
		b.WriteString(tup.Data.Key())
		if len(tup.Cond) > 0 {
			b.WriteString(" | ")
			b.WriteString(tup.Cond.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStreamingMatchesMaterialised runs a corpus covering every
// operator through both executor paths — the recursive materialiser
// and the Volcano iterator pipeline — on identical fresh fixtures
// (so world-set variable allocation sequences match) and requires
// identical rows and conditions.
func TestStreamingMatchesMaterialised(t *testing.T) {
	corpus := []string{
		// Scans, projections, filters.
		`select * from t`,
		`select a from t`,
		`select a + 1 as b, b from t where a >= 1`,
		`select * from t where a > 99`,
		// Products and joins.
		`select t1.a, t2.b from t t1, t t2`,
		`select t1.a from t t1, t t2 where t1.a = t2.a`,
		`select t.b from t, u where t.a = u.a`,
		// Uncertain scans carry conditions along.
		`select * from u`,
		`select a from u where a = 1`,
		// Semijoin over an uncertain subquery.
		`select b from t where a in (select a from u)`,
		// Union, distinct, sort, limit/offset.
		`select a from t union all select a from u`,
		`select a from t union select a from t`,
		`select a, b from t order by a desc`,
		`select a from t order by a limit 1`,
		`select a from t order by a limit 1 offset 1`,
		`select a from t limit 0`,
		`select a from t offset 1`,
		// Aggregation and confidence computation.
		`select count(*) from t`,
		`select a, count(*) c from t group by a order by a`,
		`select conf() from u`,
		`select a, conf() p from u group by a order by a`,
		`select tconf() from u where a = 1`,
		`select esum(a) from u`,
		`select ecount() from u`,
		// Possible-worlds filter.
		`select possible a from u`,
		// Uncertainty-introducing operators (fresh fixture per path
		// keeps var allocation identical).
		`select * from (repair key a in t weight by a) r`,
		`select conf() from (repair key b in t) r where a = 2`,
		`select * from (pick tuples from t with probability 0.5) p`,
		// Certain IN subqueries and dual.
		`select 1 + 2`,
		`select a from t where a in (select a from t where a >= 2)`,
	}
	for _, src := range corpus {
		cat1, store1, _ := fixture()
		mat, err1 := runSQL(t, cat1, store1, src)
		cat2, store2, _ := fixture()
		str, err2 := openSQL(t, cat2, store2, src)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%q: error mismatch: materialised=%v streaming=%v", src, err1, err2)
			continue
		}
		if err1 != nil {
			continue
		}
		if got, want := renderRel(str), renderRel(mat); got != want {
			t.Errorf("%q:\nstreaming:\n%s\nmaterialised:\n%s", src, got, want)
		}
	}
}

// hookCatalog implements BatchCatalog over in-memory relations and
// calls after with the live-row count of every window its scans read
// (once the scan's own sieve, if any, has run on it), so tests can
// watch a scan's progress: that LIMIT stops it early, or that a
// cancellation lands within a window.
type hookCatalog struct {
	*memCatalog
	after func(live int)
}

func (c *hookCatalog) TableBatches(name string, size int, sieve storage.Sieve) (urel.Iterator, error) {
	r, err := c.TableRel(name)
	if err != nil {
		return nil, err
	}
	return storage.ScanRows(r.Tuples, r.Sch, size, &hookSieve{in: sieve, after: c.after}), nil
}

// hookSieve runs the sieve a scan was given (if any) on each window,
// then calls after with the window's live-row count.
type hookSieve struct {
	in    storage.Sieve
	after func(live int)
}

func (s *hookSieve) Sift(rows []urel.Tuple, sel []int32) ([]int32, error) {
	live := len(sel)
	if s.in != nil {
		var err error
		if sel, err = s.in.Sift(rows, sel); err != nil {
			return nil, err
		}
	}
	s.after(live)
	return sel, nil
}

// TestLimitStopsPullingEarly is the tentpole property: LIMIT k over a
// large scan touches O(k + batch) tuples, not the whole table.
func TestLimitStopsPullingEarly(t *testing.T) {
	const total = 100000
	sch := schema.New(schema.Column{Name: "a", Kind: types.KindInt})
	big := urel.New(sch)
	for i := 0; i < total; i++ {
		big.Append(urel.Tuple{Data: schema.Tuple{types.NewInt(int64(i))}})
	}
	pulled := 0
	cat := &hookCatalog{
		memCatalog: &memCatalog{rels: map[string]*urel.Rel{"big": big}},
		after:      func(live int) { pulled += live },
	}
	store := ws.NewStore()

	out, err := openSQL(t, cat, store, `select a from big where a >= 2 limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("got %d rows", out.Len())
	}
	if pulled > 2*urel.DefaultBatchSize {
		t.Fatalf("LIMIT 10 pulled %d of %d tuples; want O(batch)", pulled, total)
	}

	// The materialised reference path, by contrast, visits everything.
	pulled = 0
	if _, err := runSQL(t, cat, store, `select a from big where a >= 2 limit 10`); err != nil {
		t.Fatal(err)
	}
	if pulled != total {
		t.Fatalf("materialised path pulled %d tuples; want %d", pulled, total)
	}
}

// TestScanDoesNotAliasCatalogRelation: a streaming scan's batches (and
// the materialised Run's scan result) must never alias the catalog's
// backing slice, so a concurrent writer appending to the table cannot
// be observed downstream.
func TestScanDoesNotAliasCatalogRelation(t *testing.T) {
	cat, store, _ := fixture()
	base := cat.rels["t"]
	out, err := runSQL(t, cat, store, `select * from t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) > 0 && len(base.Tuples) > 0 && &out.Tuples[0] == &base.Tuples[0] {
		t.Fatal("scan result aliases live table storage")
	}
	it, err := New(cat, store).Open(mustPlan(t, cat, `select * from t`))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	b, err := it.Next()
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if b != nil && len(b.Tuples) > 0 && &b.Tuples[0] == &base.Tuples[0] {
		t.Fatal("scan batch aliases live table storage")
	}
}

func mustPlan(t *testing.T, cat plan.Catalog, src string) plan.Node {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(st.(*sql.QueryStmt).Query, cat)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPipelineBreakerClassification pins down which operators sit
// behind the materialise boundary.
func TestPipelineBreakerClassification(t *testing.T) {
	cat, _, _ := fixture()
	breakers := map[string]bool{
		`select a from t order by a`:            true,
		`select count(*) from t`:                true,
		`select a from t union select a from t`: true, // Distinct root
		`select possible a from u`:              true,
		`select a from t limit 3`:               false,
		`select a from t where a = 1`:           false,
		`select t1.a from t t1, t t2`:           false,
	}
	for src, want := range breakers {
		n := mustPlan(t, cat, src)
		if got := plan.PipelineBreaker(n); got != want {
			t.Errorf("%q: PipelineBreaker = %v, want %v (%T)", src, got, want, n)
		}
	}
}
