package sql

import "testing"

// parseSeeds are the statement shapes the parser tests cover, valid
// and invalid, plus the query shapes of the repository benchmark.
var parseSeeds = []string{
	"create table foo (a int, b varchar, c double precision, d bool)",
	"create table bad (a blob)",
	"create table foo as select 1",
	"insert into r (a, b) values (1, 'x'), (2, NULL)",
	"insert into r select * from s",
	"update r set a = a + 1, b = 'x' where a < 10",
	"delete from r where a between 1 and 3 or b like 'x%'",
	"select possible a from r",
	"select *, r.* from r",
	"select * from (repair key a in r weight by w) r1, s",
	"create table u as select id, grp, val from (repair key grp in base weight by w) r",
	"select * from (pick tuples from r independently with probability p) t",
	"select a from r union all select b from s union select c from t",
	"(select a from r limit 1) union all (select a from s limit 2)",
	"select a from r limit 2 offset 3",
	"select 42, -7, 2.5, 1e3, 'it''s', true, false, null",
	`select "Weird Col" from "My Table"`,
	"select conf(), a + sum(b), lower(c) from r",
	"select a, aconf(0.1, 0.05), esum(b), ecount(), tconf() from r group by a having count(*) > 1 order by 1 desc",
	"select a from r where a in (select b from s) and not exists (select 1 from t where t.c = r.a)",
	"select case when a is null then 0 else a end from r",
	"begin; update acct set v = v - 1 where k = 1; commit",
	"rollback",
	"explain analyze select a from r where a >= 2 and a < 10",
	"drop table r",
	"select 1; select 2;; -- comment\nselect 3 /* block */;",
	"select * from r where",
	"select 'unterminated",
	"select (1 + 2",
	"select a ~ b",
	"select $ from r",
	"select 1; garbage trailing here;",
	// Benchmark query shapes.
	"select id, grp, val, w from base where id = 12345",
	"select count(*), sum(val), min(id), max(id) from base where val >= 100 and val < 140",
	"select id, grp, val from u where grp = 77",
	"select c.seg, p.cat, conf() from cust c, uorders o, prod p where c.id = o.cid and p.id = o.pid and p.cat = 3 and c.seg = 2 and o.qty > 7 group by c.seg, p.cat",
	"select id, grp, val from base where id >= 500 and id < 10500",
	"select conf() from u a, un b where a.grp = b.nxt and a.val < 40",
	"select val, conf() from u where val >= 10 and val < 20 group by val",
	"select count(*), sum(v) from acct",
	"update acct set v = v + 1 where k = 17",
}

// FuzzParseAll feeds arbitrary text to the parser and to the analyses
// every statement goes through before planning (read-only
// classification, table extraction, literal normalization). None may
// panic, every rejected input must come back as an error, and an
// accepted script must hold only non-nil statements.
func FuzzParseAll(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseAll(src)
		if err != nil {
			if stmts != nil {
				t.Fatalf("ParseAll(%q) returned statements beside error %v", src, err)
			}
			return
		}
		for i, s := range stmts {
			if s == nil {
				t.Fatalf("ParseAll(%q): statement %d is nil without an error", src, i)
			}
			ReadOnly(s)
			StatementTables(s)
			ReadTables(s)
			if q, ok := s.(*QueryStmt); ok {
				NormalizeQuery(q.Query)
			}
		}
		if one, err := Parse(src); (err == nil) != (len(stmts) == 1) || (err == nil && one == nil) {
			t.Fatalf("Parse(%q) = %v, %v; ParseAll found %d statements", src, one, err, len(stmts))
		}
	})
}
