package main

import (
	"fmt"
	"math/rand"
	"strings"

	"maybms"
)

// sizes scales a workload's data and request pool. The benchmark runs
// at fullSizes; the package test runs every workload at toySizes.
type sizes struct {
	baseRows int // rows of base (and of the repair-key table u)
	orders   int // rows of orders (and uorders)
	accts    int // rows of acct
	warmup   int // untimed requests each client sends before timing
}

var fullSizes = sizes{baseRows: 100000, orders: 50000, accts: 4096, warmup: 4}

var toySizes = sizes{baseRows: 2000, orders: 1000, accts: 64, warmup: 1}

// workload is one traffic mix: how to build its database and which
// requests its clients send.
type workload struct {
	name    string
	clients int
	// durable selects the disk engine with every commit fsynced;
	// otherwise the memory engine serves the workload.
	durable bool
	build   func(db *maybms.DB, sz sizes) error
	// pool draws the workload's distinct requests; each client cycles
	// through them in its own seeded order. Nil for txn_rmw, whose
	// clients draw transfers from a Zipf distribution instead.
	pool func(r *rand.Rand, sz sizes) []*op
}

var workloads = []*workload{
	{name: "conf_lineage", clients: 1, build: buildConfDB, pool: confPool},
	{name: "relational_mix", clients: 2, build: buildRelationalDB, pool: relationalPool},
	{name: "txn_rmw", clients: 2, durable: true, build: buildAcctDB},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// insertRows loads n generated rows into table in multi-row INSERT
// statements of at most 5000 rows.
func insertRows(db *maybms.DB, table string, n int, row func(i int) string) error {
	var b strings.Builder
	for lo := 0; lo < n; lo += 5000 {
		hi := min(lo+5000, n)
		b.Reset()
		fmt.Fprintf(&b, "insert into %s values ", table)
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			b.WriteString(row(i))
		}
		if _, err := db.Exec(b.String()); err != nil {
			return fmt.Errorf("loading %s: %w", table, err)
		}
	}
	return nil
}

func execAll(db *maybms.DB, stmts ...string) error {
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// groups is the number of repair-key blocks of u: about four
// alternatives each, as in the parallel-execution experiment.
func (sz sizes) groups() int { return sz.baseRows/4 + 1 }

// buildBase creates base and its repair-key U-relation u with the
// generator of internal/experiments/parallel.go.
func buildBase(db *maybms.DB, sz sizes) error {
	if err := execAll(db, `create table base (id int, grp int, val int, w float)`); err != nil {
		return err
	}
	g := sz.groups()
	err := insertRows(db, "base", sz.baseRows, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %g)", i, i%g, (i*2654435761)%1000, 1.0+float64(i%7))
	})
	if err != nil {
		return err
	}
	return execAll(db, `create table u as select id, grp, val from (repair key grp in base weight by w) r`)
}

// buildConfDB adds un, u shifted by one block, so a chain join on
// a.grp = b.nxt pairs each block with its predecessor's alternatives.
// The join key is a stored column: an expression key would plan as a
// nested loop and measure the join instead of confidence computation.
func buildConfDB(db *maybms.DB, sz sizes) error {
	if err := buildBase(db, sz); err != nil {
		return err
	}
	return execAll(db, `create table un as select id, grp + 1 as nxt, val from u`)
}

// buildRelationalDB adds the cust/prod/orders tables of
// internal/experiments/plan.go, with uorders their repair-key fact
// table.
func buildRelationalDB(db *maybms.DB, sz sizes) error {
	if err := buildBase(db, sz); err != nil {
		return err
	}
	ncust, nprod := max(sz.orders/50, 10), max(sz.orders/200, 5)
	err := execAll(db,
		`create table cust (id int, seg int)`,
		`create table prod (id int, cat int)`,
		`create table orders (id int, cid int, pid int, qty int, w float)`)
	if err != nil {
		return err
	}
	if err := insertRows(db, "cust", ncust, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%8) }); err != nil {
		return err
	}
	if err := insertRows(db, "prod", nprod, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%16) }); err != nil {
		return err
	}
	err = insertRows(db, "orders", sz.orders, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d, %g)", i, (i*2654435761)%ncust, (i*40503)%nprod, (i/3)%10, 1.0+float64(i%5))
	})
	if err != nil {
		return err
	}
	return execAll(db, `create table uorders as select id, cid, pid, qty from (repair key id in orders weight by w) r`)
}

// buildAcctDB creates the account table of txn_rmw: every balance 0.
func buildAcctDB(db *maybms.DB, sz sizes) error {
	if err := execAll(db, `create table acct (k int, v int)`); err != nil {
		return err
	}
	return insertRows(db, "acct", sz.accts, func(i int) string { return fmt.Sprintf("(%d, 0)", i) })
}

// window draws the start of a window of width w within [0, n).
func window(r *rand.Rand, n, w int) int { return r.Intn(n - w + 1) }

// confPool draws conf_lineage's requests. Each stratum fixes the size
// of a request's lineage and the seed only places it, so every seed's
// pool costs about the same. The strata are fine-grained and drawn
// twice, so the latencies around the median (range windows) and the
// p95 (aconf over two values, the slowest class at ~8% of requests)
// are spread evenly rather than in a few seed-dependent steps.
func confPool(r *rand.Rand, sz sizes) []*op {
	var pool []*op
	g := sz.groups()
	for k := 0; k < 2; k++ {
		// SPROUT-resolvable lineage: 1 to 30 values of ~100 rows each.
		for w := 1; w <= 30; w++ {
			lo := window(r, 1000, w)
			pool = append(pool, confOp(kindConf, "conf()", fmt.Sprintf("from u where val >= %d and val < %d", lo, lo+w), "val", 0))
		}
		// Chain join over 25 to 75 blocks: lineage that is not
		// read-once, so the d-tree runs.
		for n := 25; n <= 75; n += 5 {
			lo := 1 + window(r, g-1, n)
			where := fmt.Sprintf("from u a, un b where a.grp = b.nxt and a.grp >= %d and a.grp < %d and a.val %% 2 = 0 and b.val %% 2 = 0", lo, lo+n)
			pool = append(pool, confOp(kindConf, "conf()", where, "a.grp", 0))
		}
		// Grouped conf(): many small events per request.
		lo := window(r, g, 100)
		pool = append(pool, confOp(kindConf, "conf()", fmt.Sprintf("from u where grp >= %d and grp < %d", lo, lo+100), "grp", 1))
		lo = window(r, 1000, 20)
		pool = append(pool, confOp(kindConf, "conf()", fmt.Sprintf("from u where val >= %d and val < %d", lo, lo+20), "val", 1))
		// Karp-Luby estimation over two values.
		for i := 0; i < 4; i++ {
			lo := window(r, 1000, 2)
			pool = append(pool, confOp(kindAconf, "aconf(0.1, 0.05)", fmt.Sprintf("from u where val >= %d and val < %d", lo, lo+2), "val", 0))
		}
	}
	return pool
}

// confOp builds a confidence request. col is a column of the FROM
// clause; with grouped it is also the GROUP BY column, selected before
// the aggregate.
func confOp(kind opKind, agg, fromWhere, col string, grouped int) *op {
	o := &op{kind: kind, lineage: fmt.Sprintf("select %s %s", col, fromWhere), groupCols: grouped}
	if grouped == 1 {
		o.sql = fmt.Sprintf("select %s, %s %s group by %s", col, agg, fromWhere, col)
		o.refSQL = fmt.Sprintf("select %s, conf() %s group by %s", col, fromWhere, col)
	} else {
		o.sql = fmt.Sprintf("select %s %s", agg, fromWhere)
		o.refSQL = fmt.Sprintf("select conf() %s", fromWhere)
	}
	if kind == kindAconf {
		o.eps, o.delta = 0.1, 0.05
	}
	return o
}

// relationalPool draws relational_mix's requests: point lookups,
// filter-aggregate scans, block reads of u, a three-way join whose
// conf() sees a handful of clauses, and a 10k-row streamed scan.
func relationalPool(r *rand.Rand, sz sizes) []*op {
	var pool []*op
	q := func(kind opKind, format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		pool = append(pool, &op{kind: kind, sql: s, refSQL: s})
	}
	stream := min(10000, sz.baseRows/2)
	for k := 0; k < 2; k++ {
		for i := 0; i < 4; i++ {
			q(kindQuery, "select id, grp, val, w from base where id = %d", r.Intn(sz.baseRows))
		}
		for _, w := range []int{50, 100, 200} {
			lo := window(r, 1000, w)
			q(kindQuery, "select count(*), sum(val), min(id), max(id) from base where val >= %d and val < %d", lo, lo+w)
		}
		for i := 0; i < 2; i++ {
			q(kindQuery, "select id, grp, val from u where grp = %d", r.Intn(sz.groups()))
		}
		q(kindQuery, `select c.seg, p.cat, conf() from cust c, uorders o, prod p where c.id = o.cid and p.id = o.pid and p.cat = %d and c.seg = %d and o.qty > 7 group by c.seg, p.cat`, r.Intn(16), r.Intn(8))
		lo := window(r, sz.baseRows, stream)
		q(kindStream, "select id, grp, val from base where id >= %d and id < %d", lo, lo+stream)
	}
	return pool
}
