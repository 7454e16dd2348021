package exec

import (
	"fmt"

	"maybms/internal/conf"
	"maybms/internal/conf/approx"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/types"
	"maybms/internal/urel"
)

// group accumulates the rows of one GROUP BY bucket.
type group struct {
	keyVals schema.Tuple
	rows    []urel.Tuple
}

// grouper buckets rows into groups preserving first-occurrence order —
// the canonical group order every execution strategy must reproduce.
type grouper struct {
	byKey  map[string]*group
	groups []*group
}

func newGrouper() *grouper {
	return &grouper{byKey: map[string]*group{}}
}

// add appends t to the group keyed k (creating it with keyVals on
// first sight).
func (gr *grouper) add(k string, keyVals schema.Tuple, t urel.Tuple) {
	g, ok := gr.byKey[k]
	if !ok {
		g = &group{keyVals: keyVals}
		gr.byKey[k] = g
		gr.groups = append(gr.groups, g)
	}
	g.rows = append(g.rows, t)
}

// bucket evaluates n's group-by keys for every tuple b yields and adds
// them to the grouper. ctx must be private to the calling goroutine.
func (gr *grouper) bucket(n *plan.Aggregate, ctx *plan.EvalCtx, tuples []urel.Tuple) error {
	for _, t := range tuples {
		keyVals := make(schema.Tuple, len(n.GroupBy))
		for i, gb := range n.GroupBy {
			v, err := gb.Eval(ctx, t.Data)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		gr.add(keyVals.Key(), keyVals, t)
	}
	return nil
}

// mergeGroupers combines per-partition groupers in partition order.
// Because partitions are contiguous row ranges, walking partition p's
// groups (each in local first-occurrence order) before partition
// p+1's reproduces exactly the serial grouper's group order, and
// concatenating a group's per-partition row lists in partition order
// reproduces exactly its serial row order — so every downstream
// aggregate, float summation included, folds the same values in the
// same order and stays byte-identical at every parallelism degree.
func mergeGroupers(parts []*grouper) []*group {
	merged := newGrouper()
	for _, gr := range parts {
		if gr == nil {
			continue
		}
		for _, g := range gr.groups {
			k := g.keyVals.Key()
			m, ok := merged.byKey[k]
			if !ok {
				merged.byKey[k] = g
				merged.groups = append(merged.groups, g)
				continue
			}
			m.rows = append(m.rows, g.rows...)
		}
	}
	return merged.groups
}

func (e *Executor) runAggregate(n *plan.Aggregate) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	return e.applyAggregate(n, in)
}

// applyAggregate groups a materialised input and computes aggregates.
func (e *Executor) applyAggregate(n *plan.Aggregate, in *urel.Rel) (*urel.Rel, error) {
	ctx := e.evalCtx()
	gr := newGrouper()
	if err := gr.bucket(n, ctx, in.Tuples); err != nil {
		return nil, err
	}
	groups := forceGroup(n, gr.groups)
	out := urel.New(n.Sch())
	for _, g := range groups {
		synthRows, err := e.aggregateGroup(n, ctx, g, nil, 0)
		if err != nil {
			return nil, err
		}
		if err := e.emitGroupRows(n, ctx, out, synthRows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forceGroup applies the grouping corner case: with no GROUP BY there
// is always exactly one group, even on empty input.
func forceGroup(n *plan.Aggregate, groups []*group) []*group {
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		return []*group{{keyVals: schema.Tuple{}}}
	}
	return groups
}

// emitGroupRows filters one group's synthetic rows through HAVING and
// evaluates the final select items, appending to out.
func (e *Executor) emitGroupRows(n *plan.Aggregate, ctx *plan.EvalCtx, out *urel.Rel, synthRows []schema.Tuple) error {
	for _, synth := range synthRows {
		if n.Having != nil {
			ok, err := n.Having.Test(ctx, synth)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		row := make(schema.Tuple, len(n.Items))
		for i, item := range n.Items {
			v, err := item.Eval(ctx, synth)
			if err != nil {
				return err
			}
			row[i] = v
		}
		out.Append(urel.Tuple{Data: row})
	}
	return nil
}

// aggregateGroup computes the synthetic rows [keys..., aggs...] of one
// group. argmax may fan a group out into several rows (one per
// maximiser); every other combination yields exactly one.
//
// seeds, when non-nil, holds the pre-derived Monte Carlo seed per agg
// spec — how the parallel group phase reproduces exactly the seed
// sequence the serial group loop would draw from nextConfSeed (nil
// derives inline, in call order). confWorkers overrides the sampling
// parallelism of a seeded aconf (0 means the executor's degree);
// group-parallel callers pass 1 so nested sampling workers do not
// multiply — the seeded sampler's results are worker-count invariant,
// so this changes wall-clock shape only, never bytes.
func (e *Executor) aggregateGroup(n *plan.Aggregate, ctx *plan.EvalCtx, g *group, seeds []int64, confWorkers int) ([]schema.Tuple, error) {
	aggVals := make(schema.Tuple, len(n.Aggs))
	argmaxIdx := -1
	var argmaxVals []types.Value
	for i, spec := range n.Aggs {
		switch spec.Kind {
		case plan.AggConf, plan.AggAconf:
			event := make(lineage.DNF, 0, len(g.rows))
			for _, t := range g.rows {
				event = append(event, t.Cond)
			}
			req := conf.Request{Method: e.ConfMethod, Rng: e.rng()}
			if tr := e.Tracer; tr != nil {
				// Fold the sampling effort into the aggregate operator's
				// stats. Groups may compute on concurrent workers; the
				// counters are atomic.
				st := tr.Node(n)
				req.Observe = func(s approx.SampleStats) {
					st.Counter("samples").Add(s.Trials)
					if s.RelErr > 0 {
						st.ObserveRelErr(s.RelErr)
					}
				}
			}
			if spec.Kind == plan.AggAconf {
				observe := req.Observe
				req = conf.Request{Method: conf.Approximate, Eps: spec.Eps, Delta: spec.Delta, Rng: e.rng(), Observe: observe}
				if e.SeedValid {
					// Strand-partitioned sampling: the derived seed fixes
					// the trial outcomes and Workers only distributes
					// them, so results are byte-identical at every degree
					// of parallelism.
					if seeds != nil {
						req.Seed = seeds[i]
					} else {
						req.Seed = e.nextConfSeed()
					}
					req.HasSeed = true
					if confWorkers > 0 {
						req.Workers = confWorkers
					} else {
						req.Workers = e.dop()
					}
				}
			}
			if e.Cancel != nil {
				// Monte Carlo estimation can run millions of trials; the
				// sampling loops poll this between trial blocks so a
				// killed aconf unwinds without waiting for convergence.
				req.Cancel = e.Cancel.Err
			}
			p, err := conf.Compute(event, e.Store, req)
			if err != nil {
				return nil, err
			}
			aggVals[i] = types.NewFloat(p)

		case plan.AggESum:
			total := 0.0
			for _, t := range g.rows {
				v, err := spec.Arg.Eval(ctx, t.Data)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					continue
				}
				f, ok := v.AsFloat()
				if !ok {
					return nil, fmt.Errorf("exec: esum requires a numeric argument, got %s", v.Kind())
				}
				total += f * t.Cond.Prob(e.Store)
			}
			aggVals[i] = types.NewFloat(total)

		case plan.AggECount:
			total := 0.0
			for _, t := range g.rows {
				if spec.Arg != nil {
					v, err := spec.Arg.Eval(ctx, t.Data)
					if err != nil {
						return nil, err
					}
					if v.IsNull() {
						continue
					}
				}
				total += t.Cond.Prob(e.Store)
			}
			aggVals[i] = types.NewFloat(total)

		case plan.AggArgmax:
			if err := requireCertainGroup(g, "argmax"); err != nil {
				return nil, err
			}
			var best types.Value
			var args []types.Value
			for _, t := range g.rows {
				val, err := spec.Arg2.Eval(ctx, t.Data)
				if err != nil {
					return nil, err
				}
				if val.IsNull() {
					continue
				}
				arg, err := spec.Arg.Eval(ctx, t.Data)
				if err != nil {
					return nil, err
				}
				switch {
				case best.IsNull() || val.Compare(best) > 0:
					best = val
					args = []types.Value{arg}
				case val.Compare(best) == 0:
					args = append(args, arg)
				}
			}
			argmaxIdx = i
			argmaxVals = args
			aggVals[i] = types.Null() // filled per fan-out row

		case plan.AggCountStar:
			if err := requireCertainGroup(g, "count"); err != nil {
				return nil, err
			}
			aggVals[i] = types.NewInt(int64(len(g.rows)))

		case plan.AggCount:
			if err := requireCertainGroup(g, "count"); err != nil {
				return nil, err
			}
			cnt := int64(0)
			for _, t := range g.rows {
				v, err := spec.Arg.Eval(ctx, t.Data)
				if err != nil {
					return nil, err
				}
				if !v.IsNull() {
					cnt++
				}
			}
			aggVals[i] = types.NewInt(cnt)

		case plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax:
			name := map[plan.AggKind]string{
				plan.AggSum: "sum", plan.AggAvg: "avg", plan.AggMin: "min", plan.AggMax: "max",
			}[spec.Kind]
			if err := requireCertainGroup(g, name); err != nil {
				return nil, err
			}
			v, err := e.certainAgg(spec, ctx, g)
			if err != nil {
				return nil, err
			}
			aggVals[i] = v

		default:
			return nil, fmt.Errorf("exec: unknown aggregate kind %d", spec.Kind)
		}
	}

	base := g.keyVals.Concat(aggVals)
	if argmaxIdx < 0 {
		return []schema.Tuple{base}, nil
	}
	// Fan out one synthetic row per maximiser.
	slot := len(g.keyVals) + argmaxIdx
	rows := make([]schema.Tuple, 0, len(argmaxVals))
	for _, a := range argmaxVals {
		r := base.Clone()
		r[slot] = a
		rows = append(rows, r)
	}
	return rows, nil
}

// requireCertainGroup enforces MayBMS's rule that standard SQL
// aggregates apply only to t-certain relations: on uncertain data they
// would have exponentially many results across the worlds.
func requireCertainGroup(g *group, agg string) error {
	for _, t := range g.rows {
		if len(t.Cond) != 0 {
			return fmt.Errorf("exec: aggregate %s is not supported on uncertain relations; use esum/ecount or conf", agg)
		}
	}
	return nil
}

// certainAgg computes sum/avg/min/max over a certain group.
func (e *Executor) certainAgg(spec plan.AggSpec, ctx *plan.EvalCtx, g *group) (types.Value, error) {
	var (
		sumI   int64
		sumF   float64
		isInt  = true
		count  int64
		minV   = types.Null()
		maxV   = types.Null()
		anyVal bool
	)
	for _, t := range g.rows {
		v, err := spec.Arg.Eval(ctx, t.Data)
		if err != nil {
			return types.Null(), err
		}
		if v.IsNull() {
			continue
		}
		anyVal = true
		count++
		switch spec.Kind {
		case plan.AggSum, plan.AggAvg:
			switch v.Kind() {
			case types.KindInt:
				sumI += v.Int()
				sumF += float64(v.Int())
			case types.KindFloat:
				isInt = false
				sumF += v.Float()
			default:
				return types.Null(), fmt.Errorf("exec: sum/avg requires numeric values, got %s", v.Kind())
			}
		case plan.AggMin:
			if minV.IsNull() || v.Compare(minV) < 0 {
				minV = v
			}
		case plan.AggMax:
			if maxV.IsNull() || v.Compare(maxV) > 0 {
				maxV = v
			}
		}
	}
	switch spec.Kind {
	case plan.AggSum:
		if !anyVal {
			return types.Null(), nil
		}
		if isInt {
			return types.NewInt(sumI), nil
		}
		return types.NewFloat(sumF), nil
	case plan.AggAvg:
		if !anyVal {
			return types.Null(), nil
		}
		return types.NewFloat(sumF / float64(count)), nil
	case plan.AggMin:
		return minV, nil
	case plan.AggMax:
		return maxV, nil
	}
	return types.Null(), fmt.Errorf("exec: unreachable aggregate")
}
