package plan

import (
	"fmt"
	"math"
	"testing"

	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/types"
)

// refEval is an expression evaluator as the closure compiler built it
// before boolean forms became three-valued kernels: every node returns
// a types.Value by copy and every comparison goes through the operator
// string.
type refEval func(ctx *EvalCtx, row schema.Tuple) (types.Value, error)

// referenceCompile is that compiler, kept as the oracle for Compile
// over the forms FuzzPredicate generates. It is the original code with
// one change: BETWEEN is x >= lo AND x <= hi under three-valued logic,
// where the original returned NULL whenever either bound did.
func referenceCompile(e sql.Expr, sch *schema.Schema) (refEval, types.Kind, error) {
	switch e := e.(type) {
	case sql.Lit:
		v := e.Val
		return func(*EvalCtx, schema.Tuple) (types.Value, error) { return v, nil }, v.Kind(), nil

	case sql.Param:
		idx := e.Idx
		return func(ctx *EvalCtx, _ schema.Tuple) (types.Value, error) {
			if idx >= len(ctx.Args) {
				return types.Null(), fmt.Errorf("plan: missing argument %d for parameterized plan", idx)
			}
			return ctx.Args[idx], nil
		}, e.Kind, nil

	case sql.ColRef:
		idx, err := sch.Resolve(e.Rel, e.Name)
		if err != nil {
			return nil, 0, err
		}
		return func(_ *EvalCtx, row schema.Tuple) (types.Value, error) { return row[idx], nil }, sch.Cols[idx].Kind, nil

	case *sql.Unary:
		in, kind, err := referenceCompile(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		switch e.Op {
		case "-":
			return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
				v, err := in(ctx, row)
				if err != nil {
					return types.Null(), err
				}
				return types.Neg(v)
			}, kind, nil
		case "not":
			return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
				v, err := in(ctx, row)
				if err != nil {
					return types.Null(), err
				}
				if v.IsNull() {
					return types.Null(), nil
				}
				return types.NewBool(!v.Truth()), nil
			}, types.KindBool, nil
		}
		return nil, 0, fmt.Errorf("plan: unknown unary operator %q", e.Op)

	case *sql.Binary:
		return referenceBinary(e, sch)

	case *sql.IsNull:
		in, _, err := referenceCompile(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		neg := e.Negate
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			v, err := in(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool(v.IsNull() != neg), nil
		}, types.KindBool, nil

	case *sql.Between:
		lo, _, err := referenceCompile(&sql.Binary{Op: ">=", L: e.E, R: e.Lo}, sch)
		if err != nil {
			return nil, 0, err
		}
		hi, _, err := referenceCompile(&sql.Binary{Op: "<=", L: e.E, R: e.Hi}, sch)
		if err != nil {
			return nil, 0, err
		}
		neg := e.Negate
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			a, err := lo(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			b, err := hi(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			aKnown, aTrue := refTruth(a)
			bKnown, bTrue := refTruth(b)
			switch {
			case (aKnown && !aTrue) || (bKnown && !bTrue):
				return types.NewBool(neg), nil
			case !aKnown || !bKnown:
				return types.Null(), nil
			}
			return types.NewBool(!neg), nil
		}, types.KindBool, nil

	case *sql.InList:
		in, _, err := referenceCompile(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		items := make([]refEval, len(e.List))
		for i, x := range e.List {
			c, _, err := referenceCompile(x, sch)
			if err != nil {
				return nil, 0, err
			}
			items[i] = c
		}
		neg := e.Negate
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			v, err := in(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			anyNull := false
			for _, it := range items {
				w, err := it(ctx, row)
				if err != nil {
					return types.Null(), err
				}
				if w.IsNull() {
					anyNull = true
					continue
				}
				if v.Equal(w) {
					return types.NewBool(!neg), nil
				}
			}
			if anyNull {
				return types.Null(), nil
			}
			return types.NewBool(neg), nil
		}, types.KindBool, nil
	}
	return nil, 0, fmt.Errorf("plan: unsupported expression %T", e)
}

func referenceBinary(e *sql.Binary, sch *schema.Schema) (refEval, types.Kind, error) {
	l, lkind, err := referenceCompile(e.L, sch)
	if err != nil {
		return nil, 0, err
	}
	r, rkind, err := referenceCompile(e.R, sch)
	if err != nil {
		return nil, 0, err
	}
	op := e.Op
	switch op {
	case "and", "or":
		isAnd := op == "and"
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			a, err := l(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			if !a.IsNull() {
				if isAnd && !a.Truth() {
					return types.NewBool(false), nil
				}
				if !isAnd && a.Truth() {
					return types.NewBool(true), nil
				}
			}
			b, err := r(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			if b.IsNull() || a.IsNull() {
				if !b.IsNull() {
					if isAnd && !b.Truth() {
						return types.NewBool(false), nil
					}
					if !isAnd && b.Truth() {
						return types.NewBool(true), nil
					}
				}
				return types.Null(), nil
			}
			if isAnd {
				return types.NewBool(a.Truth() && b.Truth()), nil
			}
			return types.NewBool(a.Truth() || b.Truth()), nil
		}, types.KindBool, nil
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			a, err := l(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			b, err := r(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			return referenceCompareOp(op, a, b)
		}, types.KindBool, nil
	case "like":
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			a, err := l(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			b, err := r(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			if a.IsNull() || b.IsNull() {
				return types.Null(), nil
			}
			if a.Kind() != types.KindText || b.Kind() != types.KindText {
				return types.Null(), fmt.Errorf("LIKE requires text operands")
			}
			return types.NewBool(likeMatch(b.Text(), a.Text())), nil
		}, types.KindBool, nil
	case "+", "-", "*", "/", "%":
		kind := types.KindInt
		if lkind == types.KindFloat || rkind == types.KindFloat {
			kind = types.KindFloat
		}
		if op == "+" && lkind == types.KindText {
			kind = types.KindText
		}
		fn := map[string]func(a, b types.Value) (types.Value, error){
			"+": types.Add, "-": types.Sub, "*": types.Mul, "/": types.Div, "%": types.Mod,
		}[op]
		return func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			a, err := l(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			b, err := r(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			return fn(a, b)
		}, kind, nil
	}
	return nil, 0, fmt.Errorf("plan: unknown operator %q", op)
}

// referenceCompareOp is the original string-switched types.CompareOp.
func referenceCompareOp(op string, a, b types.Value) (types.Value, error) {
	if a.IsNull() || b.IsNull() {
		return types.Null(), nil
	}
	switch op {
	case "=", "<>", "!=":
		eq := a.Equal(b)
		if op == "=" {
			return types.NewBool(eq), nil
		}
		return types.NewBool(!eq), nil
	}
	numeric := func(v types.Value) bool { return v.Kind() == types.KindInt || v.Kind() == types.KindFloat }
	if !(numeric(a) && numeric(b)) && a.Kind() != b.Kind() {
		return types.Null(), fmt.Errorf("cannot compare %s with %s", a.Kind(), b.Kind())
	}
	c := a.Compare(b)
	switch op {
	case "<":
		return types.NewBool(c < 0), nil
	case "<=":
		return types.NewBool(c <= 0), nil
	case ">":
		return types.NewBool(c > 0), nil
	case ">=":
		return types.NewBool(c >= 0), nil
	}
	return types.Null(), fmt.Errorf("unknown comparison operator %q", op)
}

// refTruth splits a value in a boolean context into whether it is
// known (not NULL) and its truth.
func refTruth(v types.Value) (known, truth bool) {
	if v.IsNull() {
		return false, false
	}
	return true, v.Truth()
}

// fuzzPool holds the values predicate inputs are drawn from: every
// kind, NULL, and the float and integer extremes.
var fuzzPool = []types.Value{
	types.Null(),
	types.NewInt(0), types.NewInt(1), types.NewInt(-2), types.NewInt(7),
	types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
	types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1), types.NewFloat(2.5),
	types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
	types.NewText(""), types.NewText("a"), types.NewText("a%"),
	types.NewBool(false), types.NewBool(true),
}

// fuzzSch is the input schema; the column "zz" that exprGen may also
// name does not exist, so both compilers must reject it alike.
var fuzzSch = schema.New(
	schema.Column{Rel: "t", Name: "a", Kind: types.KindInt},
	schema.Column{Rel: "t", Name: "b", Kind: types.KindFloat},
	schema.Column{Rel: "t", Name: "c", Kind: types.KindText},
	schema.Column{Rel: "t", Name: "d", Kind: types.KindBool},
)

// exprGen decodes fuzz bytes into expressions and values. Each node
// consumes one selector byte, then whatever its children and operands
// consume; exhausted input reads as zero bytes, which decode to the
// column a.
type exprGen struct{ data []byte }

func (g *exprGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

func (g *exprGen) value() types.Value { return fuzzPool[g.next()%len(fuzzPool)] }

func (g *exprGen) leaf() sql.Expr {
	switch b := g.next(); b % 3 {
	case 0:
		return sql.ColRef{Name: []string{"a", "b", "c", "d", "zz"}[(b/3)%5]}
	case 1:
		return sql.Lit{Val: g.value()}
	default:
		// Indexes up to 3 against argument vectors of length 0..3, so
		// some are missing.
		return sql.Param{Idx: (b / 3) % 4, Kind: g.value().Kind()}
	}
}

var (
	fuzzCmpOps   = []string{"=", "<>", "!=", "<", "<=", ">", ">="}
	fuzzArithOps = []string{"+", "-", "*", "/", "%"}
)

func (g *exprGen) expr(depth int) sql.Expr {
	if depth == 0 {
		return g.leaf()
	}
	b := g.next()
	switch b % 12 {
	case 0, 1:
		return g.leaf()
	case 2, 3:
		op := fuzzCmpOps[g.next()%len(fuzzCmpOps)]
		return &sql.Binary{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 4:
		op := "and"
		if b&0x10 != 0 {
			op = "or"
		}
		return &sql.Binary{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 5:
		return &sql.Unary{Op: "not", E: g.expr(depth - 1)}
	case 6:
		return &sql.IsNull{E: g.expr(depth - 1), Negate: b&0x10 != 0}
	case 7:
		return &sql.Between{E: g.expr(depth - 1), Lo: g.expr(depth - 1), Hi: g.expr(depth - 1), Negate: b&0x10 != 0}
	case 8:
		list := make([]sql.Expr, 1+g.next()%3)
		in := g.expr(depth - 1)
		for i := range list {
			list[i] = g.expr(depth - 1)
		}
		return &sql.InList{E: in, List: list, Negate: b&0x10 != 0}
	case 9:
		op := fuzzArithOps[g.next()%len(fuzzArithOps)]
		return &sql.Binary{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 10:
		return &sql.Unary{Op: "-", E: g.expr(depth - 1)}
	default:
		return &sql.Binary{Op: "like", L: g.expr(depth - 1), R: g.expr(depth - 1)}
	}
}

// sameValue reports whether two values have one kind and bit-identical
// payloads.
func sameValue(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindInt:
		return a.Int() == b.Int()
	case types.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case types.KindText:
		return a.Text() == b.Text()
	case types.KindBool:
		return a.Bool() == b.Bool()
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// FuzzPredicate compiles random expression trees — comparisons,
// AND/OR/NOT, IS NULL, BETWEEN, IN lists, LIKE and arithmetic over
// columns, literals and parameters of every kind, with mixed kinds that
// must raise errors and parameter indexes past the argument vector —
// with Compile and with referenceCompile. On several rows, Eval must
// return the oracle's value bit for bit and the same error (nil or
// not, same text), and Test must report exactly "the value is TRUE".
func FuzzPredicate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 1, 0x11, 7, 9, 0x12, 20})
	f.Add([]byte{0x17, 0, 1, 29, 0, 12, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		e := g.expr(5)
		args := make([]types.Value, g.next()%4)
		for i := range args {
			args[i] = g.value()
		}
		rows := make([]schema.Tuple, 3)
		for i := range rows {
			rows[i] = schema.Tuple{g.value(), g.value(), g.value(), g.value()}
		}
		checkPredicate(t, e, args, rows)
	})
}

// checkPredicate compiles e with Compile and referenceCompile and
// compares them on each row: same compile error, same static kind,
// Eval bit for bit with the same error, and Test true exactly when the
// reference value is TRUE.
func checkPredicate(t *testing.T, e sql.Expr, args []types.Value, rows []schema.Tuple) {
	t.Helper()
	got, gerr := Compile(e, fuzzSch)
	want, wantKind, werr := referenceCompile(e, fuzzSch)
	expr := ExprString(e)
	if !sameErr(gerr, werr) {
		t.Fatalf("%s: Compile error %v, reference %v", expr, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got.Kind() != wantKind {
		t.Fatalf("%s: kind %v, reference %v", expr, got.Kind(), wantKind)
	}
	ctx := &EvalCtx{Args: args}
	for _, row := range rows {
		wv, werr := want(ctx, row)
		gv, gerr := got.Eval(ctx, row)
		if !sameErr(gerr, werr) || !sameValue(gv, wv) {
			t.Fatalf("%s on %v args %v: Eval = %v, %v; reference %v, %v", expr, row, args, gv, gerr, wv, werr)
		}
		ok, terr := got.Test(ctx, row)
		known, truth := refTruth(wv)
		if !sameErr(terr, werr) || ok != (werr == nil && known && truth) {
			t.Fatalf("%s on %v args %v: Test = %v, %v; reference value %v, %v", expr, row, args, ok, terr, wv, werr)
		}
	}
}

// TestComparisonsMatchReference runs every comparison operator on
// every ordered pair of pool values, with the operands read as
// columns, literals, parameters and computed expressions, so each
// branch of the comparison kernel meets every kind pairing.
func TestComparisonsMatchReference(t *testing.T) {
	a, b := sql.ColRef{Name: "a"}, sql.ColRef{Name: "b"}
	for _, op := range fuzzCmpOps {
		for _, x := range fuzzPool {
			for _, y := range fuzzPool {
				row := schema.Tuple{x, y, types.Null(), types.Null()}
				args := []types.Value{x, y}
				shapes := [][2]sql.Expr{
					{a, b},
					{sql.Lit{Val: x}, sql.Param{Idx: 1, Kind: y.Kind()}},
					{sql.Param{Idx: 0, Kind: x.Kind()}, sql.Lit{Val: y}},
					{&sql.Unary{Op: "-", E: &sql.Unary{Op: "-", E: a}}, b},
				}
				for _, sh := range shapes {
					e := &sql.Binary{Op: op, L: sh[0], R: sh[1]}
					checkPredicate(t, e, args, []schema.Tuple{row})
					checkPredicate(t, &sql.Unary{Op: "not", E: e}, args, []schema.Tuple{row})
				}
			}
		}
	}
}
