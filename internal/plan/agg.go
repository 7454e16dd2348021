package plan

import (
	"fmt"
	"strings"

	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/types"
)

// equiJoinKeys recognises `l.col = r.col` conjuncts usable as hash-join
// keys across the given schemas (in either order).
func equiJoinKeys(bin *sql.Binary, ls, rs *schema.Schema) (int, int, bool) {
	lc, ok1 := bin.L.(sql.ColRef)
	rc, ok2 := bin.R.(sql.ColRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if li, err := ls.Resolve(lc.Rel, lc.Name); err == nil {
		if ri, err := rs.Resolve(rc.Rel, rc.Name); err == nil {
			return li, ri, true
		}
	}
	if li, err := ls.Resolve(rc.Rel, rc.Name); err == nil {
		if ri, err := rs.Resolve(lc.Rel, lc.Name); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

// resolvedKey canonicalises an expression for GROUP BY matching:
// column references resolve to schema positions so that qualified and
// unqualified spellings of the same column compare equal.
func resolvedKey(e sql.Expr, sch *schema.Schema) string {
	switch e := e.(type) {
	case sql.ColRef:
		if idx, err := sch.Resolve(e.Rel, e.Name); err == nil {
			return fmt.Sprintf("colidx:%d", idx)
		}
		return "col:" + strings.ToLower(e.Rel) + "." + strings.ToLower(e.Name)
	case *sql.Unary:
		return "(" + e.Op + " " + resolvedKey(e.E, sch) + ")"
	case *sql.Binary:
		return "(" + resolvedKey(e.L, sch) + " " + e.Op + " " + resolvedKey(e.R, sch) + ")"
	case *sql.FuncCall:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = resolvedKey(a, sch)
		}
		star := ""
		if e.Star {
			star = "*"
		}
		return e.Name + "(" + star + strings.Join(parts, ",") + ")"
	case *sql.Cast:
		return fmt.Sprintf("cast(%s as %s)", resolvedKey(e.E, sch), e.Kind)
	case *sql.IsNull:
		return fmt.Sprintf("(%s is null neg=%v)", resolvedKey(e.E, sch), e.Negate)
	default:
		return ExprString(e)
	}
}

const (
	synthGBPrefix  = "__g"
	synthAggPrefix = "__agg"
)

// aggCollector accumulates aggregate specs while rewriting select
// items to reference the synthetic [group keys..., aggregates...]
// schema.
type aggCollector struct {
	b        *builder
	inSch    *schema.Schema
	gbKeys   map[string]int
	specs    []AggSpec
	specKeys map[string]int
	specKind []types.Kind
	hasArgmx bool
}

// rewrite replaces group-by subexpressions and aggregate calls with
// synthetic column references.
func (ac *aggCollector) rewrite(e sql.Expr) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if idx, ok := ac.gbKeys[resolvedKey(e, ac.inSch)]; ok {
		return sql.ColRef{Name: fmt.Sprintf("%s%d", synthGBPrefix, idx)}, nil
	}
	switch e := e.(type) {
	case *sql.FuncCall:
		if sql.AggregateNames[e.Name] {
			idx, err := ac.addSpec(e)
			if err != nil {
				return nil, err
			}
			return sql.ColRef{Name: fmt.Sprintf("%s%d", synthAggPrefix, idx)}, nil
		}
		args := make([]sql.Expr, len(e.Args))
		for i, a := range e.Args {
			na, err := ac.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &sql.FuncCall{Name: e.Name, Args: args, Star: e.Star}, nil
	case *sql.Unary:
		in, err := ac.rewrite(e.E)
		if err != nil {
			return nil, err
		}
		return &sql.Unary{Op: e.Op, E: in}, nil
	case *sql.Binary:
		l, err := ac.rewrite(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ac.rewrite(e.R)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: e.Op, L: l, R: r}, nil
	case *sql.Cast:
		in, err := ac.rewrite(e.E)
		if err != nil {
			return nil, err
		}
		return &sql.Cast{E: in, Kind: e.Kind}, nil
	case *sql.IsNull:
		in, err := ac.rewrite(e.E)
		if err != nil {
			return nil, err
		}
		return &sql.IsNull{E: in, Negate: e.Negate}, nil
	default:
		return e, nil
	}
}

// addSpec registers an aggregate call, deduplicating identical calls.
func (ac *aggCollector) addSpec(e *sql.FuncCall) (int, error) {
	key := resolvedKey(e, ac.inSch)
	if idx, ok := ac.specKeys[key]; ok {
		return idx, nil
	}
	spec, kind, err := ac.makeSpec(e)
	if err != nil {
		return 0, err
	}
	if spec.Kind == AggArgmax {
		if ac.hasArgmx {
			return 0, fmt.Errorf("plan: at most one argmax per query")
		}
		ac.hasArgmx = true
	}
	idx := len(ac.specs)
	ac.specs = append(ac.specs, spec)
	ac.specKind = append(ac.specKind, kind)
	ac.specKeys[key] = idx
	return idx, nil
}

func (ac *aggCollector) makeSpec(e *sql.FuncCall) (AggSpec, types.Kind, error) {
	compileArg := func(i int) (*Compiled, error) {
		return compile(e.Args[i], ac.inSch, ac.b.planSub())
	}
	switch e.Name {
	case "conf":
		if len(e.Args) != 0 || e.Star {
			return AggSpec{}, 0, fmt.Errorf("plan: conf() takes no arguments")
		}
		return AggSpec{Kind: AggConf}, types.KindFloat, nil
	case "aconf":
		spec := AggSpec{Kind: AggAconf, Eps: 0.05, Delta: 0.05}
		if len(e.Args) == 2 {
			eps, ok1 := constFloat(e.Args[0])
			delta, ok2 := constFloat(e.Args[1])
			if !ok1 || !ok2 {
				return AggSpec{}, 0, fmt.Errorf("plan: aconf(eps, delta) requires numeric literals")
			}
			spec.Eps, spec.Delta = eps, delta
		} else if len(e.Args) != 0 {
			return AggSpec{}, 0, fmt.Errorf("plan: aconf takes zero or two arguments")
		}
		return spec, types.KindFloat, nil
	case "tconf":
		return AggSpec{}, 0, fmt.Errorf("plan: tconf() cannot be combined with GROUP BY or other aggregates")
	case "esum":
		if len(e.Args) != 1 {
			return AggSpec{}, 0, fmt.Errorf("plan: esum(expr) takes one argument")
		}
		arg, err := compileArg(0)
		if err != nil {
			return AggSpec{}, 0, err
		}
		return AggSpec{Kind: AggESum, Arg: arg}, types.KindFloat, nil
	case "ecount":
		spec := AggSpec{Kind: AggECount}
		if len(e.Args) == 1 {
			arg, err := compileArg(0)
			if err != nil {
				return AggSpec{}, 0, err
			}
			spec.Arg = arg
		} else if len(e.Args) != 0 && !e.Star {
			return AggSpec{}, 0, fmt.Errorf("plan: ecount takes zero or one argument")
		}
		return spec, types.KindFloat, nil
	case "argmax":
		if len(e.Args) != 2 {
			return AggSpec{}, 0, fmt.Errorf("plan: argmax(arg, value) takes two arguments")
		}
		arg, err := compileArg(0)
		if err != nil {
			return AggSpec{}, 0, err
		}
		val, err := compileArg(1)
		if err != nil {
			return AggSpec{}, 0, err
		}
		return AggSpec{Kind: AggArgmax, Arg: arg, Arg2: val}, arg.Kind(), nil
	case "count":
		if e.Star {
			return AggSpec{Kind: AggCountStar}, types.KindInt, nil
		}
		if len(e.Args) != 1 {
			return AggSpec{}, 0, fmt.Errorf("plan: count takes * or one argument")
		}
		arg, err := compileArg(0)
		if err != nil {
			return AggSpec{}, 0, err
		}
		return AggSpec{Kind: AggCount, Arg: arg}, types.KindInt, nil
	case "sum", "avg", "min", "max":
		if len(e.Args) != 1 {
			return AggSpec{}, 0, fmt.Errorf("plan: %s takes one argument", e.Name)
		}
		arg, err := compileArg(0)
		if err != nil {
			return AggSpec{}, 0, err
		}
		kind := map[string]AggKind{"sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax}[e.Name]
		out := arg.Kind()
		if e.Name == "avg" {
			out = types.KindFloat
		}
		return AggSpec{Kind: kind, Arg: arg}, out, nil
	default:
		return AggSpec{}, 0, fmt.Errorf("plan: unknown aggregate %q", e.Name)
	}
}

// constFloat extracts a numeric literal (possibly negated).
func constFloat(e sql.Expr) (float64, bool) {
	switch e := e.(type) {
	case sql.Lit:
		return e.Val.AsFloat()
	case *sql.Unary:
		if e.Op == "-" {
			f, ok := constFloat(e.E)
			return -f, ok
		}
	}
	return 0, false
}

// buildSort plans ORDER BY against a node's output schema; integer
// literals are positional references.
func (b *builder) buildSort(in Node, orderBy []sql.OrderItem) (Node, error) {
	keys := make([]*Compiled, len(orderBy))
	desc := make([]bool, len(orderBy))
	for i, oi := range orderBy {
		desc[i] = oi.Desc
		if lit, ok := oi.Expr.(sql.Lit); ok && lit.Val.Kind() == types.KindInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > in.Sch().Len() {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			idx := pos - 1
			keys[i] = colRefCompiled(in.Sch(), idx)
			continue
		}
		k, err := compile(oi.Expr, in.Sch(), b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: ORDER BY: %v", err)
		}
		keys[i] = k
	}
	return &Sort{In: in, Keys: keys, Desc: desc}, nil
}

// colRefCompiled returns a compiled expression selecting column idx —
// a pure positional read, trivially shareable across goroutines.
func colRefCompiled(sch *schema.Schema, idx int) *Compiled {
	return derive(&Compiled{
		kind:      sch.Cols[idx].Kind,
		eval:      func(_ *EvalCtx, row schema.Tuple) (types.Value, error) { return row[idx], nil },
		shareable: true,
	})
}

// buildAggregate plans a grouped query: standard SQL aggregates demand
// t-certain groups; conf/aconf/esum/ecount work on uncertain inputs
// and produce t-certain outputs. ORDER BY is planned here too, since
// it may reference group-by expressions that are not projected: those
// become hidden output columns that a final projection strips.
func (b *builder) buildAggregate(in Node, items []sql.SelectItem, q *sql.Select) (Node, error) {
	ac := &aggCollector{
		b:        b,
		inSch:    in.Sch(),
		gbKeys:   map[string]int{},
		specKeys: map[string]int{},
	}
	// Compile group-by expressions against the input schema.
	gb := make([]*Compiled, len(q.GroupBy))
	for i, e := range q.GroupBy {
		c, err := compile(e, in.Sch(), b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: GROUP BY: %v", err)
		}
		gb[i] = c
		ac.gbKeys[resolvedKey(e, in.Sch())] = i
	}
	// Rewrite select items and HAVING.
	rewritten := make([]sql.Expr, len(items))
	for i, it := range items {
		ne, err := ac.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		rewritten[i] = ne
	}
	var havingRw sql.Expr
	if q.Having != nil {
		ne, err := ac.rewrite(q.Having)
		if err != nil {
			return nil, err
		}
		havingRw = ne
	}
	// Pre-register aggregates appearing only in ORDER BY so they get
	// synthetic slots before the schema is frozen.
	for _, oi := range q.OrderBy {
		if sql.IsAggregate(oi.Expr) {
			if _, err := ac.rewrite(oi.Expr); err != nil {
				return nil, err
			}
		}
	}
	// Synthetic schema.
	synthCols := make([]schema.Column, 0, len(gb)+len(ac.specs))
	for i, c := range gb {
		synthCols = append(synthCols, schema.Column{Name: fmt.Sprintf("%s%d", synthGBPrefix, i), Kind: c.Kind()})
	}
	for i := range ac.specs {
		synthCols = append(synthCols, schema.Column{Name: fmt.Sprintf("%s%d", synthAggPrefix, i), Kind: ac.specKind[i]})
	}
	synth := schema.New(synthCols...)

	agg := &Aggregate{In: in, GroupBy: gb, Aggs: ac.specs, synth: synth}
	outCols := make([]schema.Column, len(items))
	for i, it := range items {
		c, err := compile(rewritten[i], synth, b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: select item %d must use aggregates or GROUP BY expressions: %v", i+1, err)
		}
		agg.Items = append(agg.Items, c)
		outCols[i] = schema.Column{Name: itemName(it, i), Kind: c.Kind()}
	}
	if havingRw != nil {
		c, err := compile(havingRw, synth, b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: HAVING must use aggregates or GROUP BY expressions: %v", err)
		}
		agg.Having = c
	}
	if len(q.OrderBy) == 0 {
		agg.sch = schema.New(outCols...)
		return agg, nil
	}

	// ORDER BY: positional and alias references resolve against the
	// visible output; anything else is rewritten like a select item
	// and carried as a hidden output column.
	visible := schema.New(outCols...)
	type sortRef struct {
		idx  int // column in the (extended) aggregate output
		desc bool
	}
	refs := make([]sortRef, len(q.OrderBy))
	hiddenCols := outCols
	for i, oi := range q.OrderBy {
		refs[i].desc = oi.Desc
		if lit, ok := oi.Expr.(sql.Lit); ok && lit.Val.Kind() == types.KindInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > len(items) {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			refs[i].idx = pos - 1
			continue
		}
		// Alias or output-column reference?
		if cr, ok := oi.Expr.(sql.ColRef); ok && cr.Rel == "" {
			if idx, err := visible.Resolve("", cr.Name); err == nil {
				refs[i].idx = idx
				continue
			}
		}
		// Hidden sort column: rewrite against group keys/aggregates.
		rw, err := ac.rewrite(oi.Expr)
		if err != nil {
			return nil, fmt.Errorf("plan: ORDER BY: %v", err)
		}
		c, err := compile(rw, synth, b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: ORDER BY must use aggregates or GROUP BY expressions: %v", err)
		}
		refs[i].idx = len(hiddenCols)
		agg.Items = append(agg.Items, c)
		hiddenCols = append(hiddenCols, schema.Column{
			Name: fmt.Sprintf("__sort%d", i), Kind: c.Kind(),
		})
	}
	agg.sch = schema.New(hiddenCols...)

	keys := make([]*Compiled, len(refs))
	desc := make([]bool, len(refs))
	for i, r := range refs {
		keys[i] = colRefCompiled(agg.sch, r.idx)
		desc[i] = r.desc
	}
	var out Node = &Sort{In: agg, Keys: keys, Desc: desc}
	if len(hiddenCols) > len(outCols) || len(hiddenCols) != len(items) {
		// Strip hidden columns with an identity projection.
		proj := &Project{In: out, sch: visible}
		for i := range items {
			proj.Items = append(proj.Items, ProjItem{Expr: colRefCompiled(agg.sch, i)})
		}
		out = proj
	}
	return out, nil
}
