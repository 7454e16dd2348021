package schema

import (
	"math"
	"testing"

	"maybms/internal/types"
)

func testSchema() *Schema {
	return New(
		Column{Rel: "r", Name: "a", Kind: types.KindInt},
		Column{Rel: "r", Name: "b", Kind: types.KindText},
		Column{Rel: "s", Name: "a", Kind: types.KindFloat},
	)
}

func TestResolve(t *testing.T) {
	s := testSchema()
	if i, err := s.Resolve("r", "a"); err != nil || i != 0 {
		t.Errorf("r.a: %d %v", i, err)
	}
	if i, err := s.Resolve("s", "a"); err != nil || i != 2 {
		t.Errorf("s.a: %d %v", i, err)
	}
	if i, err := s.Resolve("", "b"); err != nil || i != 1 {
		t.Errorf("b: %d %v", i, err)
	}
	if _, err := s.Resolve("", "a"); err == nil {
		t.Error("ambiguous a should fail")
	}
	if _, err := s.Resolve("", "zzz"); err == nil {
		t.Error("unknown column should fail")
	}
	// Case-insensitive.
	if i, err := s.Resolve("R", "A"); err != nil || i != 0 {
		t.Errorf("case-insensitive: %d %v", i, err)
	}
}

func TestSchemaAlgebra(t *testing.T) {
	s := testSchema()
	c := s.Concat(New(Column{Name: "x", Kind: types.KindBool}))
	if c.Len() != 4 || c.Cols[3].Name != "x" {
		t.Errorf("concat: %v", c)
	}
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Cols[0].Name != "a" || p.Cols[0].Kind != types.KindFloat {
		t.Errorf("project: %v", p)
	}
	w := s.WithRel("t")
	for _, col := range w.Cols {
		if col.Rel != "t" {
			t.Errorf("withrel: %v", w)
		}
	}
	// Original untouched.
	if s.Cols[0].Rel != "r" {
		t.Error("WithRel must not mutate")
	}
	cl := s.Clone()
	cl.Cols[0].Name = "changed"
	if s.Cols[0].Name == "changed" {
		t.Error("Clone must deep-copy columns")
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{types.NewInt(1), types.NewText("x")}
	b := Tuple{types.NewFloat(2.5)}
	c := a.Concat(b)
	if len(c) != 3 || c[2].Float() != 2.5 {
		t.Errorf("concat: %v", c)
	}
	p := c.Project([]int{2, 0})
	if p[0].Float() != 2.5 || p[1].Int() != 1 {
		t.Errorf("project: %v", p)
	}
	cl := a.Clone()
	cl[0] = types.NewInt(99)
	if a[0].Int() == 99 {
		t.Error("clone aliases")
	}
}

func TestTupleEqualAndKey(t *testing.T) {
	a := Tuple{types.NewInt(2), types.Null()}
	b := Tuple{types.NewFloat(2.0), types.Null()}
	if !a.Equal(b) {
		t.Error("2 vs 2.0 tuples should be equal (grouping semantics)")
	}
	if a.Key() != b.Key() {
		t.Error("equal tuples must share keys")
	}
	c := Tuple{types.NewInt(2), types.NewInt(0)}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("NULL must not equal 0")
	}
	// Key injectivity across kinds.
	d := Tuple{types.NewText("2"), types.Null()}
	if a.Key() == d.Key() {
		t.Error("int 2 and text '2' must not collide")
	}
	// Separator safety.
	e := Tuple{types.NewText("a\x1fb")}
	f := Tuple{types.NewText("a"), types.NewText("b")}
	if e.Key() == f.Key() {
		t.Error("separator collision")
	}
}

func TestTupleKeyNumbers(t *testing.T) {
	key := func(v types.Value) string { return Tuple{v}.Key() }
	same := [][2]types.Value{
		{types.NewInt(2), types.NewFloat(2)},
		{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1))},
		{types.NewInt(0), types.NewFloat(math.Copysign(0, -1))},
		{types.NewInt(math.MinInt64), types.NewFloat(-(1 << 63))},
		{types.NewFloat(math.NaN()), types.NewFloat(-math.NaN())},
	}
	for _, p := range same {
		if key(p[0]) != key(p[1]) {
			t.Errorf("%v and %v must share a key: %q vs %q", p[0], p[1], key(p[0]), key(p[1]))
		}
	}
	distinct := []types.Value{
		types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewInt(math.MaxInt64),
		types.NewFloat(1 << 63), types.NewFloat(0.5), types.NewFloat(1e-7),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NewFloat(math.NaN()),
		types.NewText("9007199254740992"), types.NewBool(true),
	}
	seen := map[string]types.Value{}
	for _, v := range distinct {
		if w, dup := seen[key(v)]; dup {
			t.Errorf("%v and %v share key %q", v, w, key(v))
		}
		seen[key(v)] = v
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{types.NewInt(1), types.NewText("b")}
	b := Tuple{types.NewInt(1), types.NewText("c")}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("lexicographic compare")
	}
	if a.Compare(a) != 0 {
		t.Error("reflexive")
	}
	short := Tuple{types.NewInt(1)}
	if short.Compare(a) >= 0 {
		t.Error("prefix sorts first")
	}
}
