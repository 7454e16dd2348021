package db

import (
	"math"
	"strings"
	"testing"

	"maybms/internal/types"
)

// evalScalar runs SELECT <expr> and returns the single cell.
func evalScalar(t *testing.T, d *Database, expr string) types.Value {
	t.Helper()
	res := mustRun(t, d, "select "+expr)
	if len(res.Rel.Tuples) != 1 || len(res.Rel.Tuples[0].Data) != 1 {
		t.Fatalf("select %s: %v", expr, res.Rel.Tuples)
	}
	return res.Rel.Tuples[0].Data[0]
}

func TestScalarFunctions(t *testing.T) {
	d := New()
	cases := []struct {
		expr string
		want types.Value
	}{
		{"abs(-5)", types.NewInt(5)},
		{"abs(5)", types.NewInt(5)},
		{"abs(-2.5)", types.NewFloat(2.5)},
		{"coalesce(null, null, 3, 4)", types.NewInt(3)},
		{"coalesce(null, 'x')", types.NewText("x")},
		{"lower('AbC')", types.NewText("abc")},
		{"upper('AbC')", types.NewText("ABC")},
		{"length('hello')", types.NewInt(5)},
		{"cast('7' as int) + 1", types.NewInt(8)},
		{"cast(1 as bool)", types.NewBool(true)},
		{"7 % 4", types.NewInt(3)},
		{"-(-3)", types.NewInt(3)},
		{"2 < 3 and 3 < 4", types.NewBool(true)},
		{"2 > 3 or 3 > 4", types.NewBool(false)},
		{"not (1 = 2)", types.NewBool(true)},
		{"1 in (3, 2, 1)", types.NewBool(true)},
		{"1 not in (3, 2)", types.NewBool(true)},
		{"2 between 1 and 3", types.NewBool(true)},
		{"4 not between 1 and 3", types.NewBool(true)},
		{"null is null", types.NewBool(true)},
		{"1 is not null", types.NewBool(true)},
		{"'ab' + 'cd'", types.NewText("abcd")},
		{"'hello' like 'h%o'", types.NewBool(true)},
		{"'hello' not like '%z%'", types.NewBool(true)},
	}
	for _, c := range cases {
		got := evalScalar(t, d, c.expr)
		if !got.Equal(c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("select %s = %v want %v", c.expr, got, c.want)
		}
	}
}

func TestScalarNullPropagation(t *testing.T) {
	d := New()
	nullExprs := []string{
		"null + 1", "1 - null", "null * null", "abs(null)",
		"lower(null)", "length(null)", "null = null", "null < 1",
		"null in (1, 2)", "1 in (2, null)", // unknown membership
		"null like 'x'", "null between 1 and 2",
		"coalesce(null, null)",
		"null and true", "null or false",
	}
	for _, e := range nullExprs {
		if got := evalScalar(t, d, e); !got.IsNull() {
			t.Errorf("select %s = %v want NULL", e, got)
		}
	}
	// Three-valued logic short-circuits.
	if got := evalScalar(t, d, "false and null"); got.IsNull() || got.Bool() {
		t.Errorf("false and null = %v want false", got)
	}
	if got := evalScalar(t, d, "true or null"); got.IsNull() || !got.Bool() {
		t.Errorf("true or null = %v want true", got)
	}
}

// x BETWEEN a AND b is x >= a AND x <= b under three-valued logic: a
// NULL bound leaves the result unknown only while the other comparison
// is not already FALSE, and NOT BETWEEN negates that.
func TestBetweenThreeValued(t *testing.T) {
	d := New()
	mustRun(t, d, "create table t (x int, y int); insert into t values (5, null), (20, 1)")
	render := func(src string) string {
		t.Helper()
		var parts []string
		for _, row := range rowsOf(mustRun(t, d, src).Rel) {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			parts = append(parts, strings.Join(cells, " "))
		}
		return strings.Join(parts, "; ")
	}
	cases := []struct{ src, want string }{
		{"select x from t where x not between 10 and y order by x", "5; 20"},
		{"select x from t where not (x >= 10 and x <= y) order by x", "5; 20"},
		{"select x, x between 10 and y from t order by x", "5 false; 20 false"},
		{"select x, x between 1 and y, x not between 1 and y from t order by x", "5 NULL NULL; 20 false true"},
		{"select x from t where x between 1 and y order by x", ""},
	}
	for _, c := range cases {
		if got := render(c.src); got != c.want {
			t.Errorf("%s: got %q want %q", c.src, got, c.want)
		}
	}
}

func TestScalarErrors(t *testing.T) {
	d := New()
	bad := []string{
		"select abs('x')",
		"select length(1)",
		"select lower(1)",
		"select nosuchfunc(1)",
		"select abs(1, 2)",
		"select coalesce()",
		"select 'a' like 1",
		"select cast('zz' as int)",
	}
	for _, src := range bad {
		if _, err := d.Run(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestAconfDefaultsAndLiteralArgs(t *testing.T) {
	d := New()
	mustRun(t, d, `create table c (f text, w float); insert into c values ('h',1),('t',1)`)
	// Zero-argument aconf uses default (0.05, 0.05).
	res := mustRun(t, d, `select aconf() from (repair key in c weight by w) r where f = 'h'`)
	if p := res.Rel.Tuples[0].Data[0].Float(); math.Abs(p-0.5) > 0.1 {
		t.Errorf("aconf(): %v", p)
	}
	// Non-literal arguments are rejected.
	mustFail(t, d, `select aconf(w, 0.05) from (repair key in c weight by w) r`)
	mustFail(t, d, `select aconf(0.05) from (repair key in c weight by w) r`)
	// conf takes no arguments.
	mustFail(t, d, `select conf(w) from (repair key in c weight by w) r`)
}

func TestEcountVariants(t *testing.T) {
	d := New()
	mustRun(t, d, `create table r5 (x int, p float);
		insert into r5 values (1, 0.5), (NULL, 0.5)`)
	mustRun(t, d, `create table u5 as select x from (pick tuples from r5 with probability p) t`)
	// ecount() counts all tuples; ecount(x) skips NULL arguments.
	res := mustRun(t, d, `select ecount(), ecount(x) from u5`)
	all := res.Rel.Tuples[0].Data[0].Float()
	nonNull := res.Rel.Tuples[0].Data[1].Float()
	if math.Abs(all-1.0) > 1e-12 || math.Abs(nonNull-0.5) > 1e-12 {
		t.Errorf("ecount variants: %v %v", all, nonNull)
	}
}

func TestOrderByAlias(t *testing.T) {
	d := New()
	mustRun(t, d, `create table g2 (team text, pts int);
		insert into g2 values ('a', 1), ('b', 5), ('c', 3)`)
	res := mustRun(t, d, `select team, pts * 2 doubled from g2 order by doubled desc`)
	rows := rowsOf(res.Rel)
	if rows[0][0].Text() != "b" || rows[2][0].Text() != "a" {
		t.Errorf("order by alias: %v", rows)
	}
}

func TestUnionTypeUnification(t *testing.T) {
	d := New()
	mustRun(t, d, `create table i1 (x int); insert into i1 values (1);
		create table f1 (x float); insert into f1 values (2.5)`)
	res := mustRun(t, d, `select x from i1 union all select x from f1 order by x`)
	if res.Rel.Sch.Cols[0].Kind != types.KindFloat {
		t.Errorf("unified kind: %v", res.Rel.Sch.Cols[0].Kind)
	}
	// NULL columns unify with anything.
	res = mustRun(t, d, `select null from i1 union all select x from i1`)
	if res.Rel.Sch.Cols[0].Kind != types.KindInt {
		t.Errorf("null unification: %v", res.Rel.Sch.Cols[0].Kind)
	}
}

func TestExplainAllOperators(t *testing.T) {
	d := New()
	mustRun(t, d, `create table r6 (a int, w float); insert into r6 values (1, 1)`)
	queries := map[string]string{
		`explain select 1`: "Dual",
		`explain select possible a from (pick tuples from r6) u`:                               "Possible",
		`explain select a from r6 union all select a from r6`:                                  "UnionAll",
		`explain select distinct a from r6`:                                                    "Distinct",
		`explain select a from r6 order by a limit 3`:                                          "Limit",
		`explain repair key a in r6 weight by w`:                                               "RepairKey",
		`explain select a, tconf() from (pick tuples from r6) u`:                               "tconf=true",
		`explain select t.a from (select a from r6) t`:                                         "Rename",
		`explain select a from r6 where a in (select a from (pick tuples from r6) u)`:          "SemiJoinIn",
		`explain select esum(a), ecount(), min(a), max(a), avg(a), count(*), count(a) from r6`: "esum",
		`explain select argmax(a, w) from r6 group by a`:                                       "argmax",
		`explain select aconf() from (pick tuples from r6) u group by a`:                       "aconf",
	}
	for q, want := range queries {
		res := mustRun(t, d, q)
		var text strings.Builder
		for _, row := range res.Rel.Tuples {
			text.WriteString(row.Data[0].Text())
			text.WriteByte('\n')
		}
		if !strings.Contains(text.String(), want) {
			t.Errorf("%s:\nmissing %q in\n%s", q, want, text.String())
		}
	}
}

func TestOffsetAndOrderByNonProjected(t *testing.T) {
	d := New()
	mustRun(t, d, `create table o1 (a int, b int);
		insert into o1 values (1, 30), (2, 10), (3, 20)`)
	// ORDER BY a column that is not in the select list.
	res := mustRun(t, d, `select a from o1 order by b`)
	rows := rowsOf(res.Rel)
	if rows[0][0].Int() != 2 || rows[1][0].Int() != 3 || rows[2][0].Int() != 1 {
		t.Errorf("order by non-projected: %v", rows)
	}
	// LIMIT with OFFSET.
	res = mustRun(t, d, `select a from o1 order by b limit 1 offset 1`)
	rows = rowsOf(res.Rel)
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Errorf("limit/offset: %v", rows)
	}
	// OFFSET without LIMIT.
	res = mustRun(t, d, `select a from o1 order by b offset 2`)
	rows = rowsOf(res.Rel)
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("offset only: %v", rows)
	}
	// OFFSET past the end yields nothing.
	res = mustRun(t, d, `select a from o1 offset 99`)
	if len(res.Rel.Tuples) != 0 {
		t.Errorf("offset past end: %v", rowsOf(res.Rel))
	}
	// ORDER BY non-projected still fails with DISTINCT (ambiguous).
	mustFail(t, d, `select distinct a from o1 order by b`)
}
