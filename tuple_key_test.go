package maybms

import (
	"fmt"
	"testing"
)

// Grouping, duplicate elimination, hash joins, IN-subqueries, repair
// key blocks and conf() events all key tuples by their values. INTs
// above 2^53 that differ by one must stay apart, and the FLOATs 0.0
// and -0.0, which compare equal, must come together.
func TestTupleKeysKeepValuesApart(t *testing.T) {
	db := Open()
	db.MustExec(`create table t (k int);
		insert into t values (9007199254740993), (9007199254740992);
		create table c (id int, k int, w float);
		insert into c values (1, 9007199254740993, 1), (1, 7, 1),
			(2, 9007199254740992, 1), (2, 7, 3);
		create table f (x float);
		insert into f values (0.0), (-0.0), (2.0);
		create table n (i int);
		insert into n values (0), (2)`)
	for _, tc := range []struct{ sql, want string }{
		{`select k, count(*) from t group by k order by k`,
			"[9007199254740992 1] [9007199254740993 1]"},
		{`select distinct k from t order by k`,
			"[9007199254740992] [9007199254740993]"},
		{`select a.k, b.k from t a, t b where a.k = b.k order by a.k`,
			"[9007199254740992 9007199254740992] [9007199254740993 9007199254740993]"},
		{`select k from t where k in (select k from t where k > 9007199254740992)`,
			"[9007199254740993]"},
		// Each k is its own repair-key block, so each world keeps both.
		{`select k, conf() p from (repair key k in t) r group by k order by k`,
			"[9007199254740992 1] [9007199254740993 1]"},
		{`select k, conf() p from (repair key id in c weight by w) r group by k order by k`,
			"[7 0.875] [9007199254740992 0.25] [9007199254740993 0.5]"},
		{`select x, count(*) from f group by x order by x`,
			"[0 2] [2 1]"},
		{`select count(*) from (select distinct x from f) d`,
			"[2]"},
		{`select n.i, count(*) from n, f where n.i = f.x group by n.i order by n.i`,
			"[0 2] [2 1]"},
		{`select i from n where i in (select x from f) order by i`,
			"[0] [2]"},
	} {
		rows, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		got := ""
		for i, row := range rows.Data {
			if i > 0 {
				got += " "
			}
			got += fmt.Sprint(row)
		}
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.sql, got, tc.want)
		}
	}
}
