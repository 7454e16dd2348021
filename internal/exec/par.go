package exec

// Parallel partitioned execution: when the executor's degree of
// parallelism is above one and a plan subtree is a parallel-safe
// pipeline fragment — stateless streaming operators (rename, filter,
// project, semijoin probe) over exactly one stored-table scan — Open
// compiles it into an exchange operator instead of a serial pipeline.
// The table is split into contiguous row-range shards, each shard runs
// its own copy of the fragment on a worker goroutine, and the exchange
// merges the shards' batches in partition order. Because shards are
// contiguous ranges and the merge is order-preserving, the exchange's
// output is byte-identical to the serial pipeline's: parallelism never
// changes results, only wall-clock time.

import (
	"fmt"

	"maybms/internal/exec/parallel"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/storage"
	"maybms/internal/urel"
)

// PartitionCatalog is an optional BatchCatalog extension giving the
// executor partitioned access to stored tuples: TablePartBatches
// streams the part-th of nparts contiguous row-range shards, and
// concatenating the shards in partition order reproduces TableBatches
// exactly. Iterator validity follows the catalog's, exactly as for
// BatchCatalog; partition iterators of a snapshot catalog are pulled
// concurrently from worker goroutines, which is safe because the
// snapshot's storage is frozen.
type PartitionCatalog interface {
	BatchCatalog
	TablePartBatches(name string, part, nparts, size int, sieve storage.Sieve) (urel.Iterator, error)
	// TableLen reports the table's live row count, so tiny tables can
	// skip the exchange overhead.
	TableLen(name string) (int, error)
}

// DefaultMinPartitionRows is the smallest table an exchange is worth:
// below it, worker startup and channel hand-off dominate the scan.
const DefaultMinPartitionRows = 2048

// minPartitionRows resolves the executor's partition threshold.
func (e *Executor) minPartitionRows() int {
	if e.MinPartitionRows > 0 {
		return e.MinPartitionRows
	}
	return DefaultMinPartitionRows
}

// dop resolves the executor's degree of parallelism (at least 1).
func (e *Executor) dop() int {
	if e.Parallelism < 1 {
		return 1
	}
	return e.Parallelism
}

// openParallel compiles n into a partitioned execution strategy when
// one applies: pipeline-breaker nodes (aggregate, sort, distinct) over
// a parallelisable fragment become partitioned breakers with a
// deterministic merge, and bare fragments become an exchange over
// partition pipelines. ok=false means the caller should open n
// serially.
func (e *Executor) openParallel(n plan.Node) (it urel.Iterator, ok bool, err error) {
	nparts := e.dop()
	if nparts < 2 {
		return nil, false, nil
	}
	pc, isPC := e.Cat.(PartitionCatalog)
	if !isPC {
		return nil, false, nil
	}
	switch n := n.(type) {
	case *plan.Aggregate:
		return e.openParAggregate(n, pc, nparts)
	case *plan.Sort:
		return e.openParSort(n, pc, nparts)
	case *plan.Distinct:
		return e.openParDistinct(n, pc, nparts)
	}
	fp, ok, err := e.prepFragment(n, pc)
	if !ok || err != nil {
		return nil, false, err
	}
	var trPar *parallel.Stats
	if tr := e.Tracer; tr != nil {
		trPar = &tr.Par
		tr.Node(n).Counter("partitions").Store(int64(nparts))
	}
	// The fragment root is opened raw: Open already wrapped the
	// exchange under n's stats, so wrapping each partition's root copy
	// too would double-count every row. The cancel flag, by contrast,
	// is interposed per partition — a killed query's workers must stop
	// producing at their own next batch boundary, not only when the
	// merge notices.
	ex := parallel.New(n.Sch(), nparts, e.Pool, func(part int) (urel.Iterator, error) {
		it, err := e.openPartRaw(n, pc, fp.shared, part, nparts)
		if err != nil || e.Cancel == nil {
			return it, err
		}
		return &cancelIter{in: it, flag: e.Cancel}, nil
	}, e.Stats, trPar)
	return ex, true, nil
}

// fragPrep is a fragment validated and prepared for partitioned
// execution: the shared read-only state every partition pipeline
// probes.
type fragPrep struct {
	shared map[*plan.SemiJoinIn]map[string][]lineage.Cond
}

// prepFragment checks that n is a parallel-safe fragment over a table
// large enough to be worth partitioning, and materialises each
// semijoin's subquery once, up front, on the caller's goroutine; the
// partitions share the resulting match tables read-only. (Serially
// the first pull would do this; doing it at open keeps workers free
// of shared lazy state.) ok=false means execute serially.
func (e *Executor) prepFragment(n plan.Node, pc PartitionCatalog) (*fragPrep, bool, error) {
	scan, semis, safe := e.fragment(n)
	if !safe {
		return nil, false, nil
	}
	rows, err := pc.TableLen(scan.Table)
	if err != nil {
		// Let the serial path surface the catalog error in its usual
		// shape.
		return nil, false, nil
	}
	if rows < e.minPartitionRows() {
		return nil, false, nil
	}
	shared := make(map[*plan.SemiJoinIn]map[string][]lineage.Cond, len(semis))
	for _, sj := range semis {
		m, err := e.semiJoinMatches(sj)
		if err != nil {
			return nil, false, err
		}
		shared[sj] = m
	}
	return &fragPrep{shared: shared}, true, nil
}

// fragment analyses the subtree rooted at n: it is parallel-safe when
// it consists only of rename/filter/project/semijoin-probe operators
// whose expressions are shareable (no memoising subquery state) over
// exactly one stored-table scan. It returns the leaf scan and the
// semijoin nodes whose subqueries must be materialised once and
// shared.
func (e *Executor) fragment(n plan.Node) (scan *plan.Scan, semis []*plan.SemiJoinIn, ok bool) {
	switch n := n.(type) {
	case *plan.Scan:
		return n, nil, true
	case *plan.Rename:
		return e.fragment(n.In)
	case *plan.Filter:
		if !n.Pred.Shareable() {
			return nil, nil, false
		}
		return e.fragment(n.In)
	case *plan.Project:
		for _, item := range n.Items {
			if item.IsTconf {
				// tconf workers read the world-set store. That is safe
				// only against a frozen store (the snapshot read path):
				// on the live path, a sibling branch of the same
				// write-classified statement may be allocating
				// variables — a repair-key in the other arm of a join —
				// and Store has no internal locking.
				if e.Store == nil || !e.Store.Frozen() {
					return nil, nil, false
				}
				continue
			}
			if !item.Expr.Shareable() {
				return nil, nil, false
			}
		}
		return e.fragment(n.In)
	case *plan.SemiJoinIn:
		if !n.Expr.Shareable() {
			return nil, nil, false
		}
		scan, semis, ok = e.fragment(n.In)
		if !ok {
			return nil, nil, false
		}
		return scan, append(semis, n), true
	default:
		return nil, nil, false
	}
}

// semiJoinMatches materialises a semijoin's subquery and groups its
// tuples by value — the shared, read-only probe table.
func (e *Executor) semiJoinMatches(n *plan.SemiJoinIn) (map[string][]lineage.Cond, error) {
	sit, err := e.Open(n.Sub)
	if err != nil {
		return nil, err
	}
	sub, err := urel.Drain(sit)
	if err != nil {
		return nil, err
	}
	matches := make(map[string][]lineage.Cond, len(sub.Tuples))
	for _, st := range sub.Tuples {
		matches[st.Data.Key()] = append(matches[st.Data.Key()], st.Cond)
	}
	return matches, nil
}

// openPart builds partition part's copy of the fragment: the same
// operator pipeline Open builds serially, with the leaf scan replaced
// by the partition's row-range shard and semijoin probes backed by the
// shared match tables. Each partition gets its own iterator structs
// and evaluation contexts; only immutable state (compiled expressions,
// the frozen store, match tables) is shared. Called from worker
// goroutines.
//
// With a Tracer attached, the partition copy is wrapped under the plan
// node's stats: partition copies share one OpStats (its counters are
// atomic), so rows and times sum across partitions to the serial
// totals.
func (e *Executor) openPart(n plan.Node, pc PartitionCatalog, shared map[*plan.SemiJoinIn]map[string][]lineage.Cond, part, nparts int) (urel.Iterator, error) {
	it, err := e.openPartRaw(n, pc, shared, part, nparts)
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

// openPartRaw builds the partition pipeline without wrapping its root
// (children are built via openPart and so are wrapped). The exchange
// callback uses it directly because the exchange node is already
// wrapped at the Open level.
func (e *Executor) openPartRaw(n plan.Node, pc PartitionCatalog, shared map[*plan.SemiJoinIn]map[string][]lineage.Cond, part, nparts int) (urel.Iterator, error) {
	switch n := n.(type) {
	case *plan.Scan:
		it, err := pc.TablePartBatches(n.Table, part, nparts, urel.DefaultBatchSize, nil)
		if err != nil {
			return nil, err
		}
		return &renameIter{in: it, sch: n.Sch()}, nil
	case *plan.Rename:
		in, err := e.openPart(n.In, pc, shared, part, nparts)
		if err != nil {
			return nil, err
		}
		return &renameIter{in: in, sch: n.Sch()}, nil
	case *plan.Filter:
		if scan, sieve := e.scanSieve(n); scan != nil {
			it, err := pc.TablePartBatches(scan.Table, part, nparts, urel.DefaultBatchSize, sieve)
			if err != nil {
				return nil, err
			}
			return &renameIter{in: it, sch: n.Sch()}, nil
		}
		in, err := e.openPart(n.In, pc, shared, part, nparts)
		if err != nil {
			return nil, err
		}
		return &filterIter{in: in, pred: n.Pred, ctx: e.evalCtx(), sch: n.Sch()}, nil
	case *plan.Project:
		in, err := e.openPart(n.In, pc, shared, part, nparts)
		if err != nil {
			return nil, err
		}
		return &projectIter{e: e, n: n, in: in, ctx: e.evalCtx()}, nil
	case *plan.SemiJoinIn:
		in, err := e.openPart(n.In, pc, shared, part, nparts)
		if err != nil {
			return nil, err
		}
		return &semiJoinIter{e: e, n: n, in: in, ctx: e.evalCtx(), matches: shared[n]}, nil
	default:
		// Unreachable: fragment admitted only the cases above.
		return nil, fmt.Errorf("exec: internal: non-fragment node %T reached the partition builder", n)
	}
}
