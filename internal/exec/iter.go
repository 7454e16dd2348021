package exec

// Volcano-style streaming execution: Open compiles a plan into a tree
// of pull iterators exchanging batches (urel.Iterator). Tuples flow
// from storage to the consumer without materialising intermediate
// relations, so a LIMIT k over a large scan touches O(k + batch)
// tuples. Pipeline breakers — sort, aggregate, repair-key,
// pick-tuples, distinct, possible — need their whole input and are
// isolated behind an explicit materialise boundary (matIter), reusing
// the same apply functions as the recursive reference path, so the
// two paths cannot drift.

import (
	"fmt"
	"io"

	"maybms/internal/exec/live"
	"maybms/internal/exec/trace"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/storage"
	"maybms/internal/types"
	"maybms/internal/urel"
)

// BatchCatalog is an optional Catalog extension giving the executor
// batched access to stored tuples without materialising the table
// first. The iterator's validity follows the catalog's: a live-table
// catalog hands out iterators valid only while the engine lock
// covering the table is held, while a snapshot catalog's iterators
// read frozen storage and need no lock at all. sieve, when non-nil, is
// the selection the scan runs on the stored rows in place (see
// storage.Table.Batches).
type BatchCatalog interface {
	plan.Catalog
	TableBatches(name string, size int, sieve storage.Sieve) (urel.Iterator, error)
}

// Open compiles a plan into a streaming iterator. The caller must
// Close the iterator; pulling it to exhaustion with urel.Drain yields
// exactly the rows Run materialises — including when a subtree
// compiles to a parallel exchange, whose order-preserving merge keeps
// the output byte-identical to the serial pipeline.
//
// When a Tracer is attached, every iterator is wrapped in a stats shim
// keyed by its plan node. Tracing never changes which iterators are
// built or what they produce — only observation is added — so traced
// results are byte-identical to untraced ones.
// When a Cancel flag is attached, every iterator additionally checks
// it before pulling a batch, so a killed query unwinds within one
// batch boundary wherever execution happens to be — mid-scan, inside a
// breaker's input drain, or in an exchange partition worker.
func (e *Executor) Open(n plan.Node) (urel.Iterator, error) {
	it, err := e.open(n)
	if err != nil {
		return it, err
	}
	if e.Cancel != nil {
		it = &cancelIter{in: it, flag: e.Cancel}
	}
	if e.Tracer != nil {
		it = e.Tracer.Wrap(n, it)
	}
	return it, nil
}

// cancelIter interposes the statement's cancellation flag at a batch
// boundary: one atomic load per Next, the typed cancellation error
// once the flag fires. Close passes through so teardown still releases
// the pipeline under it.
type cancelIter struct {
	in   urel.Iterator
	flag *live.Flag
}

func (it *cancelIter) Sch() *schema.Schema { return it.in.Sch() }

func (it *cancelIter) Next() (*urel.Batch, error) {
	if err := it.flag.Err(); err != nil {
		return nil, err
	}
	return it.in.Next()
}

func (it *cancelIter) Close() error { return it.in.Close() }

// open builds the untraced iterator for n (Open adds the trace shim).
func (e *Executor) open(n plan.Node) (urel.Iterator, error) {
	if it, ok, err := e.openParallel(n); ok || err != nil {
		return it, err
	}
	switch n := n.(type) {
	case *plan.Scan:
		return e.openScan(n, n.Sch(), nil)

	case *plan.Dual:
		out := urel.New(n.Sch())
		out.Append(urel.Tuple{Data: schema.Tuple{}})
		return urel.NewRelIterator(out, 1), nil

	case *plan.Rename:
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &renameIter{in: in, sch: n.Sch()}, nil

	case *plan.Product:
		l, err := e.Open(n.L)
		if err != nil {
			return nil, err
		}
		return &productIter{e: e, n: n, left: l}, nil

	case *plan.HashJoin:
		l, err := e.Open(n.L)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{e: e, n: n, left: l}, nil

	case *plan.Filter:
		if scan, sieve := e.scanSieve(n); scan != nil {
			return e.openScan(scan, n.Sch(), sieve)
		}
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &filterIter{in: in, pred: n.Pred, ctx: e.evalCtx(), sch: n.Sch()}, nil

	case *plan.SemiJoinIn:
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &semiJoinIter{e: e, n: n, in: in}, nil

	case *plan.Project:
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &projectIter{e: e, n: n, in: in, ctx: e.evalCtx()}, nil

	case *plan.UnionAll:
		return &unionIter{e: e, n: n}, nil

	case *plan.Limit:
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, sch: n.Sch(), skip: n.Offset, left: n.N}, nil

	case *plan.Number:
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &numberIter{in: in, sch: n.Sch()}, nil

	case *plan.Remap:
		in, err := e.Open(n.In)
		if err != nil {
			return nil, err
		}
		return &remapIter{in: in, cols: n.Cols, sch: n.Sch()}, nil

	// Pipeline breakers: the whole input is materialised behind the
	// boundary, then the operator's result streams out.
	case *plan.Sort:
		return e.breaker(n.In, n.Sch(), func(in *urel.Rel) (*urel.Rel, error) { return e.applySort(n, in) }), nil
	case *plan.Aggregate:
		return e.breaker(n.In, n.Sch(), func(in *urel.Rel) (*urel.Rel, error) { return e.applyAggregate(n, in) }), nil
	case *plan.Distinct:
		return e.breaker(n.In, n.Sch(), func(in *urel.Rel) (*urel.Rel, error) { return e.applyDistinct(n, in) }), nil
	case *plan.Possible:
		return e.breaker(n.In, n.Sch(), func(in *urel.Rel) (*urel.Rel, error) { return e.applyPossible(n, in) }), nil
	case *plan.RepairKey:
		return e.breaker(n.In, n.Sch(), func(in *urel.Rel) (*urel.Rel, error) { return e.applyRepairKey(n, in) }), nil
	case *plan.PickTuples:
		return e.breaker(n.In, n.Sch(), func(in *urel.Rel) (*urel.Rel, error) { return e.applyPickTuples(n, in) }), nil

	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// openScan opens a streaming scan over a stored table under the output
// schema sch, running sieve (nil keeps every row) on the stored rows.
// With a BatchCatalog the scan pulls straight from storage; otherwise
// the catalog's materialised relation is snapshotted once and scanned
// the same way. Either way only the kept tuple structs are copied out,
// batch by batch, and the batches never alias the table's live backing
// slice, so downstream operators cannot observe or corrupt the heap
// under a later writer.
func (e *Executor) openScan(n *plan.Scan, sch *schema.Schema, sieve storage.Sieve) (urel.Iterator, error) {
	if bc, ok := e.Cat.(BatchCatalog); ok {
		it, err := bc.TableBatches(n.Table, urel.DefaultBatchSize, sieve)
		if err != nil {
			return nil, err
		}
		return &renameIter{in: it, sch: sch}, nil
	}
	base, err := e.Cat.TableRel(n.Table)
	if err != nil {
		return nil, err
	}
	snap := make([]urel.Tuple, len(base.Tuples))
	copy(snap, base.Tuples)
	return storage.ScanRows(snap, sch, urel.DefaultBatchSize, sieve), nil
}

// scanSieve fuses a stack of Filters that ends at a Scan into the
// scan: it returns that Scan and a sieve running the stack's
// predicates in plan order, bottom filter first, on the stored rows in
// place. scan is nil when the stack ends at any other node; those
// filters run as filterIters.
//
// The fused scan visits the same windows as a filterIter chain over
// the scan and tests each predicate on the same rows in the same
// order, so rows, batches and the first error are unchanged. The
// sieve checks the cancellation flag before every window, as the
// cancelIter over each stacked operator would. With a Tracer attached
// it records each window into the Scan's and the inner Filters' stats
// as their own batches would have been, and marks those nodes fused=1:
// their time is counted in the top Filter, which Open wraps as usual.
func (e *Executor) scanSieve(top *plan.Filter) (*plan.Scan, *filterSieve) {
	var stack []*plan.Filter
	var n plan.Node = top
	for {
		f, ok := n.(*plan.Filter)
		if !ok {
			break
		}
		stack = append(stack, f)
		n = f.In
	}
	scan, ok := n.(*plan.Scan)
	if !ok {
		return nil, nil
	}
	s := &filterSieve{flag: e.Cancel, tests: make([]sieveTest, len(stack))}
	for k, f := range stack {
		s.tests[len(stack)-1-k] = sieveTest{pred: f.Pred, ctx: e.evalCtx()}
	}
	if tr := e.Tracer; tr != nil {
		s.scan = fusedStats(tr, scan)
		for k, f := range stack[1:] {
			s.tests[len(stack)-2-k].st = fusedStats(tr, f)
		}
	}
	return scan, s
}

// fusedStats returns the stats of a node a fused scan runs, marked as
// fused.
func fusedStats(tr *trace.Trace, n plan.Node) *trace.OpStats {
	st := tr.Node(n)
	st.Counter("fused").Store(1)
	return st
}

// filterSieve is a fused filter stack: the storage.Sieve a stored-table
// scan runs per window (see scanSieve).
type filterSieve struct {
	tests []sieveTest
	flag  *live.Flag
	scan  *trace.OpStats
}

// sieveTest is one fused Filter: its predicate, its own evaluation
// context, and (traced, inner filters only) its stats.
type sieveTest struct {
	pred *plan.Compiled
	ctx  *plan.EvalCtx
	st   *trace.OpStats
}

func (s *filterSieve) Sift(rows []urel.Tuple, sel []int32) ([]int32, error) {
	if s.flag != nil {
		if err := s.flag.Err(); err != nil {
			return nil, err
		}
	}
	if len(sel) == 0 {
		return sel, nil
	}
	recordBatch(s.scan, len(sel))
	for k := range s.tests {
		t := &s.tests[k]
		kept := sel[:0]
		for _, i := range sel {
			ok, err := t.pred.Test(t.ctx, rows[i].Data)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, i)
			}
		}
		sel = kept
		if len(sel) == 0 {
			break
		}
		recordBatch(t.st, len(sel))
	}
	return sel, nil
}

// recordBatch counts one batch of rows into st, when traced.
func recordBatch(st *trace.OpStats, rows int) {
	if st != nil {
		st.Batches.Add(1)
		st.RowsOut.Add(int64(rows))
	}
}

// breaker wraps a child plan behind a materialise boundary: on first
// pull the child streams to completion, apply computes the operator's
// full result, and the result is streamed out in batches.
func (e *Executor) breaker(child plan.Node, sch *schema.Schema, apply func(*urel.Rel) (*urel.Rel, error)) urel.Iterator {
	return &matIter{e: e, child: child, sch: sch, apply: apply}
}

type matIter struct {
	e     *Executor
	child plan.Node
	sch   *schema.Schema
	apply func(*urel.Rel) (*urel.Rel, error)
	src   urel.Iterator
	done  bool
}

func (it *matIter) Sch() *schema.Schema { return it.sch }

func (it *matIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	if it.src == nil {
		cit, err := it.e.Open(it.child)
		if err != nil {
			it.done = true
			return nil, err
		}
		in, err := urel.Drain(cit)
		if err != nil {
			it.done = true
			return nil, err
		}
		out, err := it.apply(in)
		if err != nil {
			it.done = true
			return nil, err
		}
		it.src = urel.NewRelIterator(out, urel.DefaultBatchSize)
	}
	b, err := it.src.Next()
	if err != nil {
		it.done = true
	}
	return b, err
}

func (it *matIter) Close() error {
	it.done = true
	if it.src != nil {
		return it.src.Close()
	}
	return nil
}

// renameIter relabels the schema of its input (FROM-alias Rename and
// the scan's alias qualifier); tuples pass through untouched.
type renameIter struct {
	in  urel.Iterator
	sch *schema.Schema
}

func (it *renameIter) Sch() *schema.Schema        { return it.sch }
func (it *renameIter) Next() (*urel.Batch, error) { return it.in.Next() }
func (it *renameIter) Close() error               { return it.in.Close() }

// filterIter keeps tuples whose predicate is TRUE. It records the
// passing positions of each input batch in a reused selection vector
// and copies just those tuples into an exactly sized output batch; a
// batch whose every tuple passes is handed on as it is, since the
// caller of Next owns it. Filters directly over a stored-table scan do
// not use it: they run inside the scan (scanSieve).
type filterIter struct {
	in   urel.Iterator
	pred *plan.Compiled
	ctx  *plan.EvalCtx
	sch  *schema.Schema
	sel  []int32
	done bool
}

func (it *filterIter) Sch() *schema.Schema { return it.sch }

func (it *filterIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	for {
		b, err := it.in.Next()
		if err != nil {
			it.done = true
			return nil, err
		}
		sel := it.sel[:0]
		for i := range b.Tuples {
			ok, err := it.pred.Test(it.ctx, b.Tuples[i].Data)
			if err != nil {
				it.done = true
				return nil, err
			}
			if ok {
				sel = append(sel, int32(i))
			}
		}
		it.sel = sel
		switch len(sel) {
		case 0:
			continue
		case len(b.Tuples):
			return b, nil
		}
		out := make([]urel.Tuple, len(sel))
		for j, i := range sel {
			out[j] = b.Tuples[i]
		}
		return &urel.Batch{Tuples: out}, nil
	}
}

func (it *filterIter) Close() error {
	it.done = true
	return it.in.Close()
}

// projectIter computes the select list per tuple; tconf() items map
// conditions to marginal probabilities exactly as the materialised
// projection does.
type projectIter struct {
	e    *Executor
	n    *plan.Project
	in   urel.Iterator
	ctx  *plan.EvalCtx
	done bool
}

func (it *projectIter) Sch() *schema.Schema { return it.n.Sch() }

func (it *projectIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	b, err := it.in.Next()
	if err != nil {
		it.done = true
		return nil, err
	}
	out := make([]urel.Tuple, 0, len(b.Tuples))
	for _, t := range b.Tuples {
		row := make(schema.Tuple, len(it.n.Items))
		for i, item := range it.n.Items {
			if item.IsTconf {
				row[i] = types.NewFloat(t.Cond.Prob(it.e.Store))
				continue
			}
			v, err := item.Expr.Eval(it.ctx, t.Data)
			if err != nil {
				it.done = true
				return nil, err
			}
			row[i] = v
		}
		cond := t.Cond
		if it.n.HasTconf {
			cond = nil
		}
		out = append(out, urel.Tuple{Data: row, Cond: cond})
	}
	return &urel.Batch{Tuples: out}, nil
}

func (it *projectIter) Close() error {
	it.done = true
	return it.in.Close()
}

// limitIter skips Offset tuples, emits the next N, then stops pulling
// and closes its input early — the operator that makes LIMIT k over a
// large input O(k + batch).
type limitIter struct {
	in   urel.Iterator
	sch  *schema.Schema
	skip int
	left int
	done bool
}

func (it *limitIter) Sch() *schema.Schema { return it.sch }

func (it *limitIter) Next() (*urel.Batch, error) {
	if it.done || it.left <= 0 {
		it.finish()
		return nil, io.EOF
	}
	for {
		b, err := it.in.Next()
		if err != nil {
			it.done = true
			return nil, err
		}
		ts := b.Tuples
		if it.skip > 0 {
			if it.skip >= len(ts) {
				it.skip -= len(ts)
				continue
			}
			ts = ts[it.skip:]
			it.skip = 0
		}
		if len(ts) > it.left {
			ts = ts[:it.left]
		}
		it.left -= len(ts)
		if it.left <= 0 {
			// Exhausted the quota: release the upstream pipeline now so
			// no further batches are computed.
			it.finish()
		}
		return &urel.Batch{Tuples: ts}, nil
	}
}

func (it *limitIter) finish() {
	if !it.done {
		it.done = true
		it.in.Close()
	}
}

func (it *limitIter) Close() error {
	it.done = true
	return it.in.Close()
}

// unionIter streams the left input to exhaustion, then the right.
// Children are opened lazily, one at a time.
type unionIter struct {
	e    *Executor
	n    *plan.UnionAll
	cur  urel.Iterator // open child, nil between children
	next int           // index into {L, R} of the next child to open
	done bool
}

func (it *unionIter) Sch() *schema.Schema { return it.n.Sch() }

func (it *unionIter) Next() (*urel.Batch, error) {
	for !it.done {
		if it.cur == nil {
			children := [2]plan.Node{it.n.L, it.n.R}
			if it.next >= len(children) {
				it.done = true
				break
			}
			c, err := it.e.Open(children[it.next])
			if err != nil {
				it.done = true
				return nil, err
			}
			it.cur, it.next = c, it.next+1
		}
		b, err := it.cur.Next()
		if err == io.EOF {
			it.cur.Close()
			it.cur = nil
			continue
		}
		if err != nil {
			it.done = true
		}
		return b, err
	}
	return nil, io.EOF
}

func (it *unionIter) Close() error {
	it.done = true
	if it.cur != nil {
		err := it.cur.Close()
		it.cur = nil
		return err
	}
	return nil
}

// productIter streams the left input against a right side materialised
// on first pull (the right side is the product's inner loop and is
// revisited once per left tuple).
type productIter struct {
	e     *Executor
	n     *plan.Product
	left  urel.Iterator
	right *urel.Rel
	lb    []urel.Tuple // current left batch
	li    int          // next left tuple
	ri    int          // next right tuple for lb[li]
	done  bool
}

func (it *productIter) Sch() *schema.Schema { return it.n.Sch() }

func (it *productIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	if it.right == nil {
		rit, err := it.e.Open(it.n.R)
		if err != nil {
			it.done = true
			return nil, err
		}
		it.right, err = urel.Drain(rit)
		if err != nil {
			it.done = true
			return nil, err
		}
	}
	out := make([]urel.Tuple, 0, urel.DefaultBatchSize)
	for {
		if it.li >= len(it.lb) {
			b, err := it.left.Next()
			if err == io.EOF {
				it.done = true
				if len(out) > 0 {
					return &urel.Batch{Tuples: out}, nil
				}
				return nil, io.EOF
			}
			if err != nil {
				it.done = true
				return nil, err
			}
			it.lb, it.li, it.ri = b.Tuples, 0, 0
		}
		lt := it.lb[it.li]
		for ; it.ri < len(it.right.Tuples); it.ri++ {
			rt := it.right.Tuples[it.ri]
			cond, ok := lt.Cond.And(rt.Cond)
			if !ok {
				continue // contradictory conditions: pair exists in no world
			}
			out = append(out, urel.Tuple{Data: lt.Data.Concat(rt.Data), Cond: cond})
			if len(out) >= urel.DefaultBatchSize {
				it.ri++
				return &urel.Batch{Tuples: out}, nil
			}
		}
		it.li++
		it.ri = 0
	}
}

func (it *productIter) Close() error {
	it.done = true
	return it.left.Close()
}

// hashJoinIter builds a hash table over the right input on first pull
// and probes it with the streaming left input. When the optimizer has
// marked the left side as the smaller estimated input (BuildLeft), the
// left is drained first instead and its key set prunes the right input
// before the hash table is built — a semijoin reduction — after which
// the buffered left tuples probe in their original order, so the
// output is byte-identical to the right-build strategy either way.
type hashJoinIter struct {
	e       *Executor
	n       *plan.HashJoin
	left    urel.Iterator
	build   map[string][]urel.Tuple
	lb      []urel.Tuple
	li      int
	probing bool         // bkt holds lb[li]'s matches (possibly none)
	bkt     []urel.Tuple // matches for lb[li]
	bi      int
	done    bool
}

func (it *hashJoinIter) Sch() *schema.Schema { return it.n.Sch() }

// buildMapSize turns an optimizer cardinality estimate into a sane
// initial map size: the estimate guides pre-sizing but a wild
// overestimate must not allocate an enormous empty table.
func buildMapSize(est int64) int {
	const lim = 1 << 20
	if est <= 0 {
		return 0
	}
	if est > lim {
		return lim
	}
	return int(est)
}

// buildTable streams the right input into the hash table. keep, when
// non-nil, is the probe-side key set: right tuples whose key is absent
// can never join and are dropped before they occupy build memory.
func (it *hashJoinIter) buildTable(keep map[string]struct{}) error {
	rit, err := it.e.Open(it.n.R)
	if err != nil {
		return err
	}
	defer rit.Close()
	size := buildMapSize(it.n.REst)
	it.build = make(map[string][]urel.Tuple, size)
	var rows, pruned int64
	for {
		b, err := rit.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, rt := range b.Tuples {
			k := rt.Data.Project(it.n.RKeys).Key()
			if keep != nil {
				if _, ok := keep[k]; !ok {
					pruned++
					continue
				}
			}
			it.build[k] = append(it.build[k], rt)
			rows++
		}
	}
	if tr := it.e.Tracer; tr != nil {
		tr.Node(it.n).Counter("build_rows").Store(rows)
		if keep != nil {
			tr.Node(it.n).Counter("semijoin_pruned").Store(pruned)
		}
	}
	return nil
}

// drainLeft materialises the probe side in stream order and collects
// its non-NULL join keys for the semijoin reduction of the build side.
// The left iterator is replaced by a replay over the buffer, so the
// probe loop below runs unchanged.
func (it *hashJoinIter) drainLeft() (map[string]struct{}, error) {
	l, err := urel.Drain(it.left)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]struct{}, buildMapSize(it.n.LEst))
	for _, lt := range l.Tuples {
		key := lt.Data.Project(it.n.LKeys)
		null := false
		for _, v := range key {
			if v.IsNull() {
				null = true
				break
			}
		}
		if !null {
			keep[key.Key()] = struct{}{}
		}
	}
	it.left = urel.NewRelIterator(l, urel.DefaultBatchSize)
	return keep, nil
}

func (it *hashJoinIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	if it.build == nil {
		var keep map[string]struct{}
		if it.n.BuildLeft {
			var err error
			if keep, err = it.drainLeft(); err != nil {
				it.done = true
				return nil, err
			}
		}
		if err := it.buildTable(keep); err != nil {
			it.done = true
			return nil, err
		}
	}
	out := make([]urel.Tuple, 0, urel.DefaultBatchSize)
	for {
		if !it.probing {
			if it.li >= len(it.lb) {
				b, err := it.left.Next()
				if err == io.EOF {
					it.done = true
					if len(out) > 0 {
						return &urel.Batch{Tuples: out}, nil
					}
					return nil, io.EOF
				}
				if err != nil {
					it.done = true
					return nil, err
				}
				it.lb, it.li = b.Tuples, 0
			}
			key := it.lb[it.li].Data.Project(it.n.LKeys)
			// SQL join semantics: NULL keys match nothing.
			hasNull := false
			for _, v := range key {
				if v.IsNull() {
					hasNull = true
					break
				}
			}
			if hasNull {
				it.li++
				continue
			}
			it.probing, it.bkt, it.bi = true, it.build[key.Key()], 0
		}
		lt := it.lb[it.li]
		for ; it.bi < len(it.bkt); it.bi++ {
			rt := it.bkt[it.bi]
			cond, ok := lt.Cond.And(rt.Cond)
			if !ok {
				continue
			}
			out = append(out, urel.Tuple{Data: lt.Data.Concat(rt.Data), Cond: cond})
			if len(out) >= urel.DefaultBatchSize {
				it.bi++
				return &urel.Batch{Tuples: out}, nil
			}
		}
		it.probing, it.bkt, it.bi = false, nil, 0
		it.li++
	}
}

func (it *hashJoinIter) Close() error {
	it.done = true
	return it.left.Close()
}

// semiJoinIter materialises the IN-subquery on first pull, then
// streams the outer input, emitting one tuple per matching subquery
// tuple with conjoined conditions (multiset semantics, exactly as the
// materialised path).
type semiJoinIter struct {
	e       *Executor
	n       *plan.SemiJoinIn
	in      urel.Iterator
	ctx     *plan.EvalCtx
	matches map[string][]lineage.Cond
	lb      []urel.Tuple
	li      int
	probing bool // bkt holds lb[li]'s matches (possibly none)
	bkt     []lineage.Cond
	bi      int
	done    bool
}

func (it *semiJoinIter) Sch() *schema.Schema { return it.n.Sch() }

func (it *semiJoinIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	if it.matches == nil {
		sit, err := it.e.Open(it.n.Sub)
		if err != nil {
			it.done = true
			return nil, err
		}
		sub, err := urel.Drain(sit)
		if err != nil {
			it.done = true
			return nil, err
		}
		it.matches = make(map[string][]lineage.Cond, len(sub.Tuples))
		for _, st := range sub.Tuples {
			it.matches[st.Data.Key()] = append(it.matches[st.Data.Key()], st.Cond)
		}
		it.ctx = it.e.evalCtx()
	}
	out := make([]urel.Tuple, 0, urel.DefaultBatchSize)
	for {
		if !it.probing {
			if it.li >= len(it.lb) {
				b, err := it.in.Next()
				if err == io.EOF {
					it.done = true
					if len(out) > 0 {
						return &urel.Batch{Tuples: out}, nil
					}
					return nil, io.EOF
				}
				if err != nil {
					it.done = true
					return nil, err
				}
				it.lb, it.li = b.Tuples, 0
			}
			v, err := it.n.Expr.Eval(it.ctx, it.lb[it.li].Data)
			if err != nil {
				it.done = true
				return nil, err
			}
			if v.IsNull() {
				it.li++
				continue
			}
			it.probing, it.bkt, it.bi = true, it.matches[(schema.Tuple{v}).Key()], 0
		}
		t := it.lb[it.li]
		for ; it.bi < len(it.bkt); it.bi++ {
			cond, ok := t.Cond.And(it.bkt[it.bi])
			if !ok {
				continue
			}
			out = append(out, urel.Tuple{Data: t.Data, Cond: cond})
			if len(out) >= urel.DefaultBatchSize {
				it.bi++
				return &urel.Batch{Tuples: out}, nil
			}
		}
		it.probing, it.bkt, it.bi = false, nil, 0
		it.li++
	}
}

func (it *semiJoinIter) Close() error {
	it.done = true
	return it.in.Close()
}

// numberIter appends a hidden column holding each tuple's position in
// stream order. The counter is global across batches, so the operator
// must see its input serially — plan.Number is unknown to the parallel
// fragment detector and therefore never partitioned.
type numberIter struct {
	in   urel.Iterator
	sch  *schema.Schema
	pos  int64
	done bool
}

func (it *numberIter) Sch() *schema.Schema { return it.sch }

func (it *numberIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	b, err := it.in.Next()
	if err != nil {
		it.done = true
		return nil, err
	}
	out := make([]urel.Tuple, 0, len(b.Tuples))
	for _, t := range b.Tuples {
		row := make(schema.Tuple, 0, len(t.Data)+1)
		row = append(row, t.Data...)
		row = append(row, types.NewInt(it.pos))
		it.pos++
		out = append(out, urel.Tuple{Data: row, Cond: t.Cond})
	}
	return &urel.Batch{Tuples: out}, nil
}

func (it *numberIter) Close() error {
	it.done = true
	return it.in.Close()
}

// remapIter is a pure positional projection (plan.Remap): output
// column i is input column cols[i]; conditions pass through untouched.
type remapIter struct {
	in   urel.Iterator
	cols []int
	sch  *schema.Schema
	done bool
}

func (it *remapIter) Sch() *schema.Schema { return it.sch }

func (it *remapIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	b, err := it.in.Next()
	if err != nil {
		it.done = true
		return nil, err
	}
	out := make([]urel.Tuple, 0, len(b.Tuples))
	for _, t := range b.Tuples {
		out = append(out, urel.Tuple{Data: t.Data.Project(it.cols), Cond: t.Cond})
	}
	return &urel.Batch{Tuples: out}, nil
}

func (it *remapIter) Close() error {
	it.done = true
	return it.in.Close()
}
