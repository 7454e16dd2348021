// Package plan translates parsed MayBMS queries into a tree of logical
// operators over U-relations, implementing the parsimonious
// translation of positive relational algebra of Antova et al. (ICDE
// 2008): selections filter data columns, projections keep condition
// columns, joins conjoin conditions and drop inconsistent
// combinations, and the uncertainty-introducing constructs repair-key
// and pick-tuples allocate fresh world-set variables.
package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// Catalog resolves table names during planning and execution.
type Catalog interface {
	// TableSchema returns the schema of a named table.
	TableSchema(name string) (*schema.Schema, error)
	// TableRel materialises the named table as a U-relation.
	TableRel(name string) (*urel.Rel, error)
	// TableCertain reports whether the named table is t-certain.
	TableCertain(name string) (bool, error)
}

// NodeRunner executes a planned subtree, returning its result. The
// executor provides it so compiled expressions can run subqueries.
type NodeRunner func(n Node) (*urel.Rel, error)

// EvalCtx carries the runtime state expression evaluation needs.
type EvalCtx struct {
	Store  *ws.Store
	Run    NodeRunner
	Rng    *rand.Rand
	Params map[string]types.Value // reserved for future use
	// Args holds the literal values extracted by statement
	// normalization, indexed by sql.Param.Idx. A cached plan is the
	// compiled normalized query; each execution supplies its own
	// argument vector here.
	Args []types.Value
}

// Compiled is a scalar expression bound to an input schema.
//
// It carries two evaluators and compile derives one from the other, so
// each form has a single implementation: eval produces the value, tri
// the truth value in a boolean context. Boolean forms (comparisons,
// AND/OR, NOT, IS NULL, BETWEEN, LIKE, IN, EXISTS) are written as tri
// kernels and their eval maps TRUE/FALSE/UNKNOWN to true/false/NULL;
// every other form is written as eval and its tri reads the value's
// truth, NULL being UNKNOWN. An evaluator that fails returns NULL
// (UNKNOWN) beside its error.
type Compiled struct {
	eval func(ctx *EvalCtx, row schema.Tuple) (types.Value, error)
	tri  func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error)
	kind types.Kind
	// shareable marks an expression whose evaluation closures keep no
	// mutable state, so one Compiled may be evaluated concurrently from
	// several goroutines. Subquery expressions (IN (...), EXISTS)
	// memoise their subquery's result on first evaluation and are not
	// shareable.
	shareable bool
}

// Shareable reports whether this expression may be evaluated
// concurrently from several goroutines sharing the one Compiled. The
// parallel executor refuses to partition a pipeline whose expressions
// are not shareable.
func (c *Compiled) Shareable() bool { return c.shareable }

// Eval evaluates the expression on a row.
func (c *Compiled) Eval(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
	return c.eval(ctx, row)
}

// Test reports whether the expression is TRUE on a row. It is the one
// place a predicate decides whether a row passes — WHERE filters,
// HAVING and the UPDATE/DELETE scans all call it — and FALSE and NULL
// both reject.
func (c *Compiled) Test(ctx *EvalCtx, row schema.Tuple) (bool, error) {
	t, err := c.tri(ctx, row)
	return t == types.TriTrue, err
}

// Kind returns the statically inferred result type.
func (c *Compiled) Kind() types.Kind { return c.kind }

// Compile binds expression e to the given input schema. Aggregate
// calls are rejected here; the aggregation operator compiles its
// arguments separately.
func Compile(e sql.Expr, sch *schema.Schema) (*Compiled, error) {
	return compile(e, sch, nil)
}

// compile allows subquery expressions; planSub plans a query appearing
// inside the expression. It stamps the result's shareability from the
// source AST — the closures built below keep mutable state only for
// subquery memoisation.
func compile(e sql.Expr, sch *schema.Schema, planSub func(q sql.Query) (Node, error)) (*Compiled, error) {
	c, err := compile1(e, sch, planSub)
	if err != nil {
		return nil, err
	}
	c.shareable = exprShareable(e)
	return derive(c), nil
}

// derive fills in whichever of c's evaluators its form did not define.
func derive(c *Compiled) *Compiled {
	switch {
	case c.tri == nil:
		eval := c.eval
		c.tri = func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			v, err := eval(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			return types.TriOf(v), nil
		}
	case c.eval == nil:
		tri := c.tri
		c.eval = func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			t, err := tri(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			return t.Value(), nil
		}
	}
	return c
}

// operand is one input of a comparison or IS NULL. A column, parameter
// or literal is read in place; any other expression is evaluated into
// the caller's scratch value.
type operand struct {
	src  operandSrc
	idx  int         // column or argument index
	lit  types.Value // srcLit
	expr *Compiled   // srcExpr
}

type operandSrc uint8

const (
	srcExpr operandSrc = iota
	srcCol
	srcParam
	srcLit
)

// operandOf describes e, already compiled to c against sch.
func operandOf(e sql.Expr, c *Compiled, sch *schema.Schema) operand {
	o := operand{expr: c}
	switch e := e.(type) {
	case sql.Lit:
		o.src, o.lit = srcLit, e.Val
	case sql.Param:
		o.src, o.idx = srcParam, e.Idx
	case sql.ColRef:
		if idx, err := sch.Resolve(e.Rel, e.Name); err == nil {
			o.src, o.idx = srcCol, idx
		}
	}
	return o
}

// read returns a pointer to the operand's value on row, valid until
// the row, the argument vector or *tmp changes.
func (o *operand) read(ctx *EvalCtx, row schema.Tuple, tmp *types.Value) (*types.Value, error) {
	switch o.src {
	case srcCol:
		return &row[o.idx], nil
	case srcParam:
		if o.idx >= len(ctx.Args) {
			return nil, errMissingArg(o.idx)
		}
		return &ctx.Args[o.idx], nil
	case srcLit:
		return &o.lit, nil
	}
	v, err := o.expr.eval(ctx, row)
	*tmp = v
	return tmp, err
}

func errMissingArg(idx int) error {
	return fmt.Errorf("plan: missing argument %d for parameterized plan", idx)
}

// exprShareable reports whether a compiled form of e keeps no mutable
// evaluation state (see Compiled.Shareable). Unknown forms are
// conservatively unshareable.
func exprShareable(e sql.Expr) bool {
	switch e := e.(type) {
	case nil, sql.Lit, sql.ColRef, sql.Param:
		return true
	case *sql.Unary:
		return exprShareable(e.E)
	case *sql.Binary:
		return exprShareable(e.L) && exprShareable(e.R)
	case *sql.IsNull:
		return exprShareable(e.E)
	case *sql.Between:
		return exprShareable(e.E) && exprShareable(e.Lo) && exprShareable(e.Hi)
	case *sql.Cast:
		return exprShareable(e.E)
	case *sql.InList:
		if !exprShareable(e.E) {
			return false
		}
		for _, x := range e.List {
			if !exprShareable(x) {
				return false
			}
		}
		return true
	case *sql.FuncCall:
		for _, a := range e.Args {
			if !exprShareable(a) {
				return false
			}
		}
		return true
	case *sql.InSubquery, *sql.Exists:
		// Memoise their subquery result lazily in the closure.
		return false
	default:
		return false
	}
}

func compile1(e sql.Expr, sch *schema.Schema, planSub func(q sql.Query) (Node, error)) (*Compiled, error) {
	switch e := e.(type) {
	case sql.Lit:
		v := e.Val
		return &Compiled{
			eval: func(*EvalCtx, schema.Tuple) (types.Value, error) { return v, nil },
			kind: v.Kind(),
		}, nil

	case sql.Param:
		idx := e.Idx
		return &Compiled{
			kind: e.Kind,
			eval: func(ctx *EvalCtx, _ schema.Tuple) (types.Value, error) {
				if idx >= len(ctx.Args) {
					return types.Null(), errMissingArg(idx)
				}
				return ctx.Args[idx], nil
			},
		}, nil

	case sql.ColRef:
		idx, err := sch.Resolve(e.Rel, e.Name)
		if err != nil {
			return nil, err
		}
		return &Compiled{
			eval: func(_ *EvalCtx, row schema.Tuple) (types.Value, error) { return row[idx], nil },
			kind: sch.Cols[idx].Kind,
		}, nil

	case *sql.Unary:
		in, err := compile(e.E, sch, planSub)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			return &Compiled{kind: in.kind, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
				v, err := in.eval(ctx, row)
				if err != nil {
					return types.Null(), err
				}
				return types.Neg(v)
			}}, nil
		case "not":
			return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
				t, err := in.tri(ctx, row)
				return t.Not(), err
			}}, nil
		default:
			return nil, fmt.Errorf("plan: unknown unary operator %q", e.Op)
		}

	case *sql.Binary:
		return compileBinary(e, sch, planSub)

	case *sql.IsNull:
		in, err := compile(e.E, sch, planSub)
		if err != nil {
			return nil, err
		}
		o, neg := operandOf(e.E, in, sch), e.Negate
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			var tmp types.Value
			v, err := o.read(ctx, row, &tmp)
			if err != nil {
				return types.TriNull, err
			}
			return types.TriBool(v.IsNull() != neg), nil
		}}, nil

	case *sql.Between:
		lo, err := compile(&sql.Binary{Op: ">=", L: e.E, R: e.Lo}, sch, planSub)
		if err != nil {
			return nil, err
		}
		hi, err := compile(&sql.Binary{Op: "<=", L: e.E, R: e.Hi}, sch, planSub)
		if err != nil {
			return nil, err
		}
		// x BETWEEN a AND b is x >= a AND x <= b under three-valued
		// logic. Both bounds are evaluated, so an error in either is
		// reported whatever the other yields.
		neg := e.Negate
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			a, err := lo.tri(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			b, err := hi.tri(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			t := a.And(b)
			if neg {
				t = t.Not()
			}
			return t, nil
		}}, nil

	case *sql.Cast:
		in, err := compile(e.E, sch, planSub)
		if err != nil {
			return nil, err
		}
		k := e.Kind
		return &Compiled{kind: k, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			v, err := in.eval(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			return v.Cast(k)
		}}, nil

	case *sql.InList:
		in, err := compile(e.E, sch, planSub)
		if err != nil {
			return nil, err
		}
		items := make([]*Compiled, len(e.List))
		for i, x := range e.List {
			c, err := compile(x, sch, planSub)
			if err != nil {
				return nil, err
			}
			items[i] = c
		}
		neg := e.Negate
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			v, err := in.eval(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			if v.IsNull() {
				return types.TriNull, nil
			}
			anyNull := false
			for _, it := range items {
				w, err := it.eval(ctx, row)
				if err != nil {
					return types.TriNull, err
				}
				if w.IsNull() {
					anyNull = true
					continue
				}
				if v.Equal(w) {
					return types.TriBool(!neg), nil
				}
			}
			if anyNull {
				return types.TriNull, nil
			}
			return types.TriBool(neg), nil
		}}, nil

	case *sql.InSubquery:
		if planSub == nil {
			return nil, fmt.Errorf("plan: subquery not allowed in this context")
		}
		sub, err := planSub(e.Query)
		if err != nil {
			return nil, err
		}
		if !sub.Certain() {
			return nil, fmt.Errorf("plan: uncertain subquery in IN must occur positively as a top-level WHERE conjunct")
		}
		if sub.Sch().Len() != 1 {
			return nil, fmt.Errorf("plan: IN subquery must return exactly one column, got %d", sub.Sch().Len())
		}
		in, err := compile(e.E, sch, planSub)
		if err != nil {
			return nil, err
		}
		neg := e.Negate
		var cache map[string]bool // lazily materialised value set
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			if cache == nil {
				rel, err := ctx.Run(sub)
				if err != nil {
					return types.TriNull, err
				}
				cache = make(map[string]bool, rel.Len())
				for _, t := range rel.Tuples {
					cache[t.Data.Key()] = true
				}
			}
			v, err := in.eval(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			if v.IsNull() {
				return types.TriNull, nil
			}
			hit := cache[schema.Tuple{v}.Key()]
			return types.TriBool(hit != neg), nil
		}}, nil

	case *sql.Exists:
		if planSub == nil {
			return nil, fmt.Errorf("plan: subquery not allowed in this context")
		}
		sub, err := planSub(e.Query)
		if err != nil {
			return nil, err
		}
		if !sub.Certain() {
			return nil, fmt.Errorf("plan: EXISTS requires a t-certain subquery; use conf() or possible instead")
		}
		neg := e.Negate
		known := false
		var result bool
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			if !known {
				rel, err := ctx.Run(sub)
				if err != nil {
					return types.TriNull, err
				}
				result = rel.Len() > 0
				known = true
			}
			return types.TriBool(result != neg), nil
		}}, nil

	case *sql.FuncCall:
		if sql.AggregateNames[e.Name] {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", e.Name)
		}
		return compileScalarFunc(e, sch, planSub)

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func compileBinary(e *sql.Binary, sch *schema.Schema, planSub func(q sql.Query) (Node, error)) (*Compiled, error) {
	l, err := compile(e.L, sch, planSub)
	if err != nil {
		return nil, err
	}
	r, err := compile(e.R, sch, planSub)
	if err != nil {
		return nil, err
	}
	op := e.Op
	switch op {
	case "and":
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			a, err := l.tri(ctx, row)
			if err != nil || a == types.TriFalse {
				return a, err
			}
			b, err := r.tri(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			return a.And(b), nil
		}}, nil
	case "or":
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			a, err := l.tri(ctx, row)
			if err != nil || a == types.TriTrue {
				return a, err
			}
			b, err := r.tri(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			return a.Or(b), nil
		}}, nil
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		cmp, _ := types.ParseCmpOp(op)
		lo, ro := operandOf(e.L, l, sch), operandOf(e.R, r, sch)
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			var ta, tb types.Value
			a, err := lo.read(ctx, row, &ta)
			if err != nil {
				return types.TriNull, err
			}
			b, err := ro.read(ctx, row, &tb)
			if err != nil {
				return types.TriNull, err
			}
			return types.Cmp(cmp, a, b)
		}}, nil
	case "like":
		return &Compiled{kind: types.KindBool, tri: func(ctx *EvalCtx, row schema.Tuple) (types.Tri, error) {
			a, err := l.eval(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			b, err := r.eval(ctx, row)
			if err != nil {
				return types.TriNull, err
			}
			if a.IsNull() || b.IsNull() {
				return types.TriNull, nil
			}
			if a.Kind() != types.KindText || b.Kind() != types.KindText {
				return types.TriNull, fmt.Errorf("LIKE requires text operands")
			}
			return types.TriBool(likeMatch(b.Text(), a.Text())), nil
		}}, nil
	case "+", "-", "*", "/", "%":
		kind := types.KindInt
		if l.kind == types.KindFloat || r.kind == types.KindFloat {
			kind = types.KindFloat
		}
		if op == "+" && l.kind == types.KindText {
			kind = types.KindText
		}
		fn := map[string]func(a, b types.Value) (types.Value, error){
			"+": types.Add, "-": types.Sub, "*": types.Mul, "/": types.Div, "%": types.Mod,
		}[op]
		return &Compiled{kind: kind, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			a, err := l.eval(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			b, err := r.eval(ctx, row)
			if err != nil {
				return types.Null(), err
			}
			return fn(a, b)
		}}, nil
	default:
		return nil, fmt.Errorf("plan: unknown operator %q", op)
	}
}

// compileScalarFunc handles the non-aggregate built-in functions.
func compileScalarFunc(e *sql.FuncCall, sch *schema.Schema, planSub func(q sql.Query) (Node, error)) (*Compiled, error) {
	args := make([]*Compiled, len(e.Args))
	for i, a := range e.Args {
		c, err := compile(a, sch, planSub)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("plan: %s expects %d argument(s), got %d", e.Name, n, len(args))
		}
		return nil
	}
	switch e.Name {
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		return &Compiled{kind: args[0].kind, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			v, err := args[0].eval(ctx, row)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.Kind() {
			case types.KindInt:
				if v.Int() < 0 {
					return types.NewInt(-v.Int()), nil
				}
				return v, nil
			case types.KindFloat:
				if v.Float() < 0 {
					return types.NewFloat(-v.Float()), nil
				}
				return v, nil
			}
			return types.Null(), fmt.Errorf("abs requires a numeric argument")
		}}, nil
	case "coalesce":
		if len(args) == 0 {
			return nil, fmt.Errorf("plan: coalesce needs at least one argument")
		}
		kind := args[0].kind
		return &Compiled{kind: kind, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			for _, a := range args {
				v, err := a.eval(ctx, row)
				if err != nil {
					return types.Null(), err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return types.Null(), nil
		}}, nil
	case "lower", "upper":
		if err := need(1); err != nil {
			return nil, err
		}
		toUpper := e.Name == "upper"
		return &Compiled{kind: types.KindText, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			v, err := args[0].eval(ctx, row)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.Kind() != types.KindText {
				return types.Null(), fmt.Errorf("%s requires a text argument", e.Name)
			}
			if toUpper {
				return types.NewText(strings.ToUpper(v.Text())), nil
			}
			return types.NewText(strings.ToLower(v.Text())), nil
		}}, nil
	case "length":
		if err := need(1); err != nil {
			return nil, err
		}
		return &Compiled{kind: types.KindInt, eval: func(ctx *EvalCtx, row schema.Tuple) (types.Value, error) {
			v, err := args[0].eval(ctx, row)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.Kind() != types.KindText {
				return types.Null(), fmt.Errorf("length requires a text argument")
			}
			return types.NewInt(int64(len(v.Text()))), nil
		}}, nil
	default:
		return nil, fmt.Errorf("plan: unknown function %q", e.Name)
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(pattern, s string) bool {
	// Dynamic programming over pattern/string positions.
	p, n := []rune(pattern), []rune(s)
	memo := make(map[[2]int]bool)
	var match func(i, j int) bool
	match = func(i, j int) bool {
		if i == len(p) {
			return j == len(n)
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		var res bool
		switch p[i] {
		case '%':
			res = match(i+1, j) || (j < len(n) && match(i, j+1))
		case '_':
			res = j < len(n) && match(i+1, j+1)
		default:
			res = j < len(n) && p[i] == n[j] && match(i+1, j+1)
		}
		memo[key] = res
		return res
	}
	return match(0, 0)
}

// ExprString renders an expression canonically; used to match GROUP BY
// expressions against SELECT items.
func ExprString(e sql.Expr) string {
	switch e := e.(type) {
	case sql.Lit:
		return "lit:" + e.Val.SQLLiteral()
	case sql.Param:
		return fmt.Sprintf("param:%d", e.Idx)
	case sql.ColRef:
		return "col:" + strings.ToLower(e.Rel) + "." + strings.ToLower(e.Name)
	case *sql.Unary:
		return "(" + e.Op + " " + ExprString(e.E) + ")"
	case *sql.Binary:
		return "(" + ExprString(e.L) + " " + e.Op + " " + ExprString(e.R) + ")"
	case *sql.FuncCall:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = ExprString(a)
		}
		star := ""
		if e.Star {
			star = "*"
		}
		return e.Name + "(" + star + strings.Join(parts, ",") + ")"
	case *sql.IsNull:
		return fmt.Sprintf("(%s is null neg=%v)", ExprString(e.E), e.Negate)
	case *sql.Between:
		return fmt.Sprintf("(%s between %s and %s neg=%v)", ExprString(e.E), ExprString(e.Lo), ExprString(e.Hi), e.Negate)
	case *sql.Cast:
		return fmt.Sprintf("cast(%s as %s)", ExprString(e.E), e.Kind)
	case *sql.InList:
		parts := make([]string, len(e.List))
		for i, a := range e.List {
			parts[i] = ExprString(a)
		}
		sort.Strings(parts)
		return fmt.Sprintf("(%s in [%s] neg=%v)", ExprString(e.E), strings.Join(parts, ","), e.Negate)
	default:
		return fmt.Sprintf("%T@%p", e, e)
	}
}
