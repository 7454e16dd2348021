// Package exec interprets logical plans over U-relations. Operators
// follow the parsimonious positive-RA translation of Antova et al.
// (ICDE 2008): projections and selections carry condition columns
// along, joins conjoin conditions and drop inconsistent pairs, and the
// uncertainty-introducing operators allocate fresh world-set
// variables. Confidence aggregation delegates to the algorithms in
// internal/conf.
package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"maybms/internal/conf"
	"maybms/internal/exec/live"
	"maybms/internal/exec/parallel"
	"maybms/internal/exec/trace"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// Executor runs plans against a catalog and world-set store.
type Executor struct {
	Cat   plan.Catalog
	Store *ws.Store
	// Rng drives Monte Carlo confidence computation when no root seed
	// is installed (SetRng with a caller-owned source); nil means a
	// deterministic default source.
	Rng *rand.Rand
	// ConfMethod is the strategy behind conf(); Auto (SPROUT with
	// d-tree fallback) unless overridden.
	ConfMethod conf.Method
	// Parallelism is the degree of intra-query parallelism: pipeline
	// fragments over tables of at least MinPartitionRows rows compile
	// to an exchange over this many partitions, and aconf's Monte
	// Carlo sampling runs this many workers. 0 or 1 executes serially.
	// Results are byte-identical at every setting.
	Parallelism int
	// MinPartitionRows is the smallest table worth partitioning; 0
	// means DefaultMinPartitionRows. Tests lower it to force exchanges
	// over small corpora.
	MinPartitionRows int
	// Stats, when non-nil, aggregates exchange activity (shared across
	// the engine's executors; surfaced as server metrics).
	Stats *parallel.Stats
	// Pool, when non-nil, schedules partition workers for exchanges and
	// partitioned pipeline breakers, capping the engine's total worker
	// goroutines across concurrent queries. nil spawns one goroutine
	// per partition, uncapped.
	Pool *parallel.Pool
	// Tracer, when non-nil, records per-operator execution statistics
	// (EXPLAIN ANALYZE, the slow-query log). It is per-statement state:
	// Fork deliberately does not copy it, so a trace attached to one
	// statement's executor never leaks into another's. A nil Tracer
	// costs one pointer check per operator open and nothing else.
	Tracer *trace.Trace
	// Seed is the root seed behind aconf's strand-partitioned Monte
	// Carlo sampling; each aconf call derives its own stream from it.
	// Valid only while SeedValid — SetRng installs a caller-owned
	// source instead and clears it.
	Seed      int64
	SeedValid bool
	// Args is the argument vector of a parameterized plan (literals
	// extracted by statement normalization); plan.Param expressions read
	// it by index. Per-statement state like Tracer: Fork does not copy
	// it.
	Args []types.Value
	// Cancel, when non-nil, is the statement's cooperative cancellation
	// flag: every iterator Open builds checks it at batch boundaries,
	// partitioned breakers check it per job, and Monte Carlo sampling
	// loops check it every few thousand trials, so a killed or timed-out
	// query unwinds within one batch. Per-statement state like Tracer:
	// Fork deliberately does not copy it. A nil Cancel costs one pointer
	// check per operator open and nothing else.
	Cancel *live.Flag
	// confCalls numbers the aconf invocations of this executor, so each
	// derives a distinct, reproducible seed. The engine hands every
	// read-only statement a fresh executor (via Fork), which restarts
	// the numbering and makes per-statement results reproducible.
	confCalls atomic.Uint64
}

// New returns an executor with default settings. The default random
// source is internally locked so read-only queries running in parallel
// (the database's shared-lock path) may draw from it concurrently.
func New(cat plan.Catalog, store *ws.Store) *Executor {
	return &Executor{Cat: cat, Store: store, Rng: NewLockedRand(1), Seed: 1, SeedValid: true}
}

// Fork returns a fresh executor with this executor's configuration
// (seed, parallelism, confidence method, stats sink) bound to another
// catalog and store — how the engine equips each snapshot with an
// executor. The aconf call numbering restarts at zero, so a statement
// always draws the same Monte Carlo streams no matter what ran before
// it.
func (e *Executor) Fork(cat plan.Catalog, store *ws.Store) *Executor {
	return &Executor{
		Cat:              cat,
		Store:            store,
		Rng:              e.Rng,
		ConfMethod:       e.ConfMethod,
		Parallelism:      e.Parallelism,
		MinPartitionRows: e.MinPartitionRows,
		Stats:            e.Stats,
		Pool:             e.Pool,
		Seed:             e.Seed,
		SeedValid:        e.SeedValid,
	}
}

// Reseed installs seed as the root of every subsequent Monte Carlo
// stream and resets the call numbering, making approximate confidence
// results reproducible from this point.
func (e *Executor) Reseed(seed int64) {
	e.Seed = seed
	e.SeedValid = true
	e.Rng = NewLockedRand(seed)
	e.confCalls.Store(0)
}

// nextConfSeed derives the seed of the next aconf invocation from the
// root seed (splitmix64 of root and call index: well-mixed, cheap, and
// stable across platforms).
func (e *Executor) nextConfSeed() int64 {
	z := uint64(e.Seed) + 0x9e3779b97f4a7c15*(e.confCalls.Add(1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// lockedSource serialises access to a rand.Source64 so a single
// *rand.Rand can be shared by concurrent query executions.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// NewLockedRand returns a seeded *rand.Rand safe for concurrent use
// (the source is mutex-guarded; rand.Rand itself keeps no other state
// on the methods the engine uses).
func NewLockedRand(seed int64) *rand.Rand {
	return rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)})
}

// rng returns the executor's random source. New always installs one;
// a nil Rng (an executor built by hand) gets a fresh locked source
// per call rather than a lazy field write, which would race under the
// database's shared read lock.
func (e *Executor) rng() *rand.Rand {
	if e.Rng == nil {
		return NewLockedRand(1)
	}
	return e.Rng
}

func (e *Executor) evalCtx() *plan.EvalCtx {
	return &plan.EvalCtx{Store: e.Store, Run: e.Run, Rng: e.rng(), Args: e.Args}
}

// Run executes a plan recursively, materialising every operator's
// full output. It remains the reference implementation (and the
// runner behind scalar subqueries); the engine's primary path is the
// streaming Open. The two must return identical rows for every plan.
func (e *Executor) Run(n plan.Node) (*urel.Rel, error) {
	switch n := n.(type) {
	case *plan.Scan:
		// Share the iterator scan so both paths have the same explicit
		// copy-out-of-storage semantics: the result never aliases the
		// table's live backing slice.
		it, err := e.openScan(n, n.Sch(), nil)
		if err != nil {
			return nil, err
		}
		return urel.Drain(it)

	case *plan.Dual:
		out := urel.New(n.Sch())
		out.Append(urel.Tuple{Data: schema.Tuple{}})
		return out, nil

	case *plan.Rename:
		in, err := e.Run(n.In)
		if err != nil {
			return nil, err
		}
		return &urel.Rel{Sch: n.Sch(), Tuples: in.Tuples}, nil

	case *plan.Product:
		return e.runProduct(n)

	case *plan.HashJoin:
		return e.runHashJoin(n)

	case *plan.Filter:
		return e.runFilter(n)

	case *plan.SemiJoinIn:
		return e.runSemiJoinIn(n)

	case *plan.Project:
		return e.runProject(n)

	case *plan.Aggregate:
		return e.runAggregate(n)

	case *plan.RepairKey:
		return e.runRepairKey(n)

	case *plan.PickTuples:
		return e.runPickTuples(n)

	case *plan.UnionAll:
		l, err := e.Run(n.L)
		if err != nil {
			return nil, err
		}
		r, err := e.Run(n.R)
		if err != nil {
			return nil, err
		}
		out := urel.New(n.Sch())
		out.Tuples = append(out.Tuples, l.Tuples...)
		out.Tuples = append(out.Tuples, r.Tuples...)
		return out, nil

	case *plan.Distinct:
		in, err := e.Run(n.In)
		if err != nil {
			return nil, err
		}
		return e.applyDistinct(n, in)

	case *plan.Possible:
		return e.runPossible(n)

	case *plan.Sort:
		return e.runSort(n)

	case *plan.Limit:
		in, err := e.Run(n.In)
		if err != nil {
			return nil, err
		}
		out := urel.New(n.Sch())
		for i, t := range in.Tuples {
			if i < n.Offset {
				continue
			}
			if i-n.Offset >= n.N {
				break
			}
			out.Append(t)
		}
		return out, nil

	case *plan.Number:
		in, err := e.Run(n.In)
		if err != nil {
			return nil, err
		}
		out := urel.New(n.Sch())
		for i, t := range in.Tuples {
			out.Append(urel.Tuple{Data: append(t.Data.Clone(), types.NewInt(int64(i))), Cond: t.Cond})
		}
		return out, nil

	case *plan.Remap:
		in, err := e.Run(n.In)
		if err != nil {
			return nil, err
		}
		out := urel.New(n.Sch())
		for _, t := range in.Tuples {
			out.Append(urel.Tuple{Data: t.Data.Project(n.Cols), Cond: t.Cond})
		}
		return out, nil

	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// applyDistinct removes duplicate data tuples from a materialised
// input, keeping first occurrences.
func (e *Executor) applyDistinct(n *plan.Distinct, in *urel.Rel) (*urel.Rel, error) {
	out := urel.New(n.Sch())
	seen := map[string]bool{}
	for _, t := range in.Tuples {
		k := t.Data.Key()
		if !seen[k] {
			seen[k] = true
			out.Append(t)
		}
	}
	return out, nil
}

func (e *Executor) runProduct(n *plan.Product) (*urel.Rel, error) {
	l, err := e.Run(n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.Run(n.R)
	if err != nil {
		return nil, err
	}
	out := urel.New(n.Sch())
	for _, lt := range l.Tuples {
		for _, rt := range r.Tuples {
			cond, ok := lt.Cond.And(rt.Cond)
			if !ok {
				continue // contradictory conditions: pair exists in no world
			}
			out.Append(urel.Tuple{Data: lt.Data.Concat(rt.Data), Cond: cond})
		}
	}
	return out, nil
}

func (e *Executor) runHashJoin(n *plan.HashJoin) (*urel.Rel, error) {
	l, err := e.Run(n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.Run(n.R)
	if err != nil {
		return nil, err
	}
	// Build on the right side.
	build := map[string][]urel.Tuple{}
	for _, rt := range r.Tuples {
		k := rt.Data.Project(n.RKeys).Key()
		build[k] = append(build[k], rt)
	}
	out := urel.New(n.Sch())
	for _, lt := range l.Tuples {
		key := lt.Data.Project(n.LKeys)
		// SQL join semantics: NULL keys match nothing.
		hasNull := false
		for _, v := range key {
			if v.IsNull() {
				hasNull = true
				break
			}
		}
		if hasNull {
			continue
		}
		for _, rt := range build[key.Key()] {
			cond, ok := lt.Cond.And(rt.Cond)
			if !ok {
				continue
			}
			out.Append(urel.Tuple{Data: lt.Data.Concat(rt.Data), Cond: cond})
		}
	}
	return out, nil
}

func (e *Executor) runFilter(n *plan.Filter) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	ctx := e.evalCtx()
	out := urel.New(n.Sch())
	for _, t := range in.Tuples {
		ok, err := n.Pred.Test(ctx, t.Data)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Append(t)
		}
	}
	return out, nil
}

func (e *Executor) runSemiJoinIn(n *plan.SemiJoinIn) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	sub, err := e.Run(n.Sub)
	if err != nil {
		return nil, err
	}
	// Group subquery tuples by value.
	matches := map[string][]lineage.Cond{}
	for _, st := range sub.Tuples {
		matches[st.Data.Key()] = append(matches[st.Data.Key()], st.Cond)
	}
	ctx := e.evalCtx()
	out := urel.New(n.Sch())
	for _, t := range in.Tuples {
		v, err := n.Expr.Eval(ctx, t.Data)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		for _, sc := range matches[(schema.Tuple{v}).Key()] {
			cond, ok := t.Cond.And(sc)
			if !ok {
				continue
			}
			out.Append(urel.Tuple{Data: t.Data, Cond: cond})
		}
	}
	return out, nil
}

func (e *Executor) runProject(n *plan.Project) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	ctx := e.evalCtx()
	out := urel.New(n.Sch())
	for _, t := range in.Tuples {
		row := make(schema.Tuple, len(n.Items))
		for i, item := range n.Items {
			if item.IsTconf {
				row[i] = types.NewFloat(t.Cond.Prob(e.Store))
				continue
			}
			v, err := item.Expr.Eval(ctx, t.Data)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		cond := t.Cond
		if n.HasTconf {
			// tconf maps the relation to a t-certain table of
			// marginals.
			cond = nil
		}
		out.Append(urel.Tuple{Data: row, Cond: cond})
	}
	return out, nil
}

func (e *Executor) runPossible(n *plan.Possible) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	return e.applyPossible(n, in)
}

// applyPossible computes the possible-tuples filter over a
// materialised input.
func (e *Executor) applyPossible(n *plan.Possible, in *urel.Rel) (*urel.Rel, error) {
	out := urel.New(n.Sch())
	idx := in.Lineage()
	for _, entry := range idx.Entries {
		// A tuple is possible iff some clause of its lineage has
		// positive probability (clauses are consistent by
		// construction).
		possible := false
		for _, c := range entry.Event {
			if c.Prob(e.Store) > 0 {
				possible = true
				break
			}
		}
		if possible {
			out.Append(urel.Tuple{Data: entry.Data})
		}
	}
	return out, nil
}

func (e *Executor) runSort(n *plan.Sort) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	return e.applySort(n, in)
}

// applySort orders a materialised input by the sort keys.
func (e *Executor) applySort(n *plan.Sort, in *urel.Rel) (*urel.Rel, error) {
	ctx := e.evalCtx()
	type keyed struct {
		t    urel.Tuple
		keys schema.Tuple
	}
	rows := make([]keyed, len(in.Tuples))
	for i, t := range in.Tuples {
		ks := make(schema.Tuple, len(n.Keys))
		for j, k := range n.Keys {
			v, err := k.Eval(ctx, t.Data)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		rows[i] = keyed{t: t, keys: ks}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for j := range n.Keys {
			c := rows[a].keys[j].Compare(rows[b].keys[j])
			if c == 0 {
				continue
			}
			if n.Desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := urel.New(n.Sch())
	for _, r := range rows {
		out.Append(r.t)
	}
	return out, nil
}

func (e *Executor) runRepairKey(n *plan.RepairKey) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	return e.applyRepairKey(n, in)
}

// applyRepairKey turns a materialised t-certain input into a
// block-independent uncertain relation, allocating world-set vars.
func (e *Executor) applyRepairKey(n *plan.RepairKey, in *urel.Rel) (*urel.Rel, error) {
	ctx := e.evalCtx()
	type block struct {
		tuples  []urel.Tuple
		weights []float64
	}
	blocks := map[string]*block{}
	var order []string
	for _, t := range in.Tuples {
		if len(t.Cond) != 0 {
			return nil, fmt.Errorf("exec: repair key requires a t-certain input")
		}
		w := 1.0
		if n.Weight != nil {
			v, err := n.Weight.Eval(ctx, t.Data)
			if err != nil {
				return nil, err
			}
			f, ok := v.AsFloat()
			if !ok {
				return nil, fmt.Errorf("exec: repair key weight must be numeric, got %s", v.Kind())
			}
			if f < 0 {
				return nil, fmt.Errorf("exec: repair key weight must be non-negative, got %v", f)
			}
			w = f
		}
		k := t.Data.Project(n.Keys).Key()
		b, ok := blocks[k]
		if !ok {
			b = &block{}
			blocks[k] = b
			order = append(order, k)
		}
		b.tuples = append(b.tuples, t)
		b.weights = append(b.weights, w)
	}
	out := urel.New(n.Sch())
	for _, k := range order {
		b := blocks[k]
		total := 0.0
		for _, w := range b.weights {
			total += w
		}
		if total <= 0 {
			return nil, fmt.Errorf("exec: repair key block has zero total weight")
		}
		if len(b.tuples) == 1 {
			// A single-alternative block is deterministic: the tuple
			// survives in every world.
			out.Append(b.tuples[0])
			continue
		}
		probs := make([]float64, len(b.weights))
		for i, w := range b.weights {
			probs[i] = w / total
		}
		v, err := e.Store.NewVar(probs)
		if err != nil {
			return nil, fmt.Errorf("exec: repair key: %v", err)
		}
		for i, t := range b.tuples {
			cond, _ := lineage.NewCond(lineage.Lit{Var: v, Val: i + 1})
			out.Append(urel.Tuple{Data: t.Data, Cond: cond})
		}
	}
	return out, nil
}

func (e *Executor) runPickTuples(n *plan.PickTuples) (*urel.Rel, error) {
	in, err := e.Run(n.In)
	if err != nil {
		return nil, err
	}
	return e.applyPickTuples(n, in)
}

// applyPickTuples maps a materialised t-certain input to the
// distribution over its subsets, allocating world-set vars.
func (e *Executor) applyPickTuples(n *plan.PickTuples, in *urel.Rel) (*urel.Rel, error) {
	ctx := e.evalCtx()
	out := urel.New(n.Sch())
	for _, t := range in.Tuples {
		if len(t.Cond) != 0 {
			return nil, fmt.Errorf("exec: pick tuples requires a t-certain input")
		}
		p := 0.5
		if n.Prob != nil {
			v, err := n.Prob.Eval(ctx, t.Data)
			if err != nil {
				return nil, err
			}
			f, ok := v.AsFloat()
			if !ok {
				return nil, fmt.Errorf("exec: pick tuples probability must be numeric, got %s", v.Kind())
			}
			p = f
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("exec: pick tuples probability %v out of [0,1]", p)
		}
		switch p {
		case 0:
			continue // never present in any world
		case 1:
			out.Append(t) // present in every world
		default:
			v, err := e.Store.NewBoolVar(p)
			if err != nil {
				return nil, err
			}
			cond, _ := lineage.NewCond(lineage.Lit{Var: v, Val: 1})
			out.Append(urel.Tuple{Data: t.Data, Cond: cond})
		}
	}
	return out, nil
}
