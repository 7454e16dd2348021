// Package parallel implements the Volcano-style exchange operator and
// the shared worker pool behind MayBMS's partitioned parallel
// execution: partition workers, each running an independent pipeline
// fragment over one row-range shard of a table, merged
// deterministically, with the total number of worker goroutines across
// all concurrent exchanges capped by an engine-wide Pool.
//
// The merge is order-preserving by construction: partition p's batches
// are emitted before partition p+1's, and partitions are contiguous
// row ranges, so the exchange's output is byte-identical to the serial
// pipeline's — every downstream operator (sort, limit, aggregation,
// confidence computation) sees exactly the rows, in exactly the order,
// it would have seen without parallelism. Parallelism is therefore a
// pure execution-strategy choice, never a semantics choice, which is
// what makes "compare parallel against serial byte for byte" a
// testable invariant rather than a tolerance.
package parallel

import (
	"io"
	"sync/atomic"

	"maybms/internal/schema"
	"maybms/internal/urel"
)

// QueueDepth is how many batches each partition worker may run ahead
// of the merge before blocking: deep enough to decouple producer and
// consumer, shallow enough to bound memory at
// nparts × QueueDepth × batch tuples.
const QueueDepth = 4

// Stats aggregates exchange activity across an engine, surfaced as
// server metrics.
type Stats struct {
	// Exchanges counts exchange operators opened (one per parallelised
	// pipeline fragment; a query can open several).
	Exchanges atomic.Int64
	// Breakers counts partitioned pipeline breakers run (parallel
	// aggregation, sort, and distinct barriers).
	Breakers atomic.Int64
	// Partitions counts partition pipelines run across all exchanges
	// and breakers.
	Partitions atomic.Int64
	// WorkersBusy gauges partition workers currently producing into an
	// exchange queue (consumer-inlined partitions run on the consumer's
	// own goroutine and are not workers).
	WorkersBusy atomic.Int64
	// InlineRuns counts partitions the consumer claimed away from the
	// pool and pulled inline (lazy serial execution under pool
	// saturation).
	InlineRuns atomic.Int64
}

// msg is one hand-off from a partition worker to the merge: a batch,
// or the partition's terminal status (io.EOF for clean exhaustion).
type msg struct {
	b   *urel.Batch
	err error
}

// partStream is one partition's production state: either a worker
// feeding the queue, or — when the consumer claimed the partition
// before any pool worker started it — an iterator pulled inline.
type partStream struct {
	part int
	ch   chan msg
	stop chan struct{}
	// done closes when the partition will never touch shared storage
	// again: its worker exited, or its task was claimed away from the
	// pool (cancelled or taken inline).
	done chan struct{}
	task *Task // nil when the partition runs on a dedicated goroutine

	// Inline state, owned by the consumer goroutine.
	inline   bool
	inlineIt urel.Iterator
}

// Exchange runs nparts pipeline fragments concurrently and merges
// their batches preserving partition order. It implements
// urel.Iterator; like every iterator it is pulled from a single
// goroutine, while its partition workers run on pool workers (or, for
// partitions the pool has not reached when the merge needs them, on
// the consuming goroutine itself). Close stops the workers and waits
// for them to exit, so resources the fragments read (a snapshot's
// frozen arrays) may be released the moment Close returns.
type Exchange struct {
	sch    *schema.Schema
	pool   *Pool
	open   func(part int) (urel.Iterator, error)
	sinks  []*Stats
	parts  []*partStream
	cur    int
	closed bool
	done   bool
}

// New starts an exchange over nparts partitions. open is invoked once
// per partition from that partition's worker goroutine (or from the
// consumer, if it claims the partition inline) and must return the
// partition's pipeline fragment; fragments must not share mutable
// state. pool schedules the partition workers (nil spawns one
// goroutine per partition, uncapped). Every non-nil stats sink
// receives the exchange's counters — the engine-global aggregate and a
// per-query trace can observe the same activity.
func New(sch *schema.Schema, nparts int, pool *Pool, open func(part int) (urel.Iterator, error), stats ...*Stats) *Exchange {
	if nparts < 1 {
		nparts = 1
	}
	ex := &Exchange{sch: sch, pool: pool, open: open, parts: make([]*partStream, nparts)}
	for _, st := range stats {
		if st != nil {
			ex.sinks = append(ex.sinks, st)
		}
	}
	for _, st := range ex.sinks {
		st.Exchanges.Add(1)
		st.Partitions.Add(int64(nparts))
	}
	for p := 0; p < nparts; p++ {
		p := p
		ps := &partStream{
			part: p,
			ch:   make(chan msg, QueueDepth),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		ex.parts[p] = ps
		fn := func() {
			for _, st := range ex.sinks {
				st.WorkersBusy.Add(1)
			}
			defer func() {
				for _, st := range ex.sinks {
					st.WorkersBusy.Add(-1)
				}
			}()
			ps.run(p, open)
		}
		done := func() { close(ps.done) }
		if pool != nil {
			ps.task = pool.Submit(fn, done)
		} else {
			go func() { fn(); done() }()
		}
	}
	return ex
}

// run produces one partition's batches until exhaustion, error, or
// stop. The terminal message carries io.EOF or the error.
func (ps *partStream) run(part int, open func(part int) (urel.Iterator, error)) {
	it, err := open(part)
	if err != nil {
		ps.send(msg{err: err})
		return
	}
	defer it.Close()
	for {
		b, err := it.Next()
		if err != nil {
			ps.send(msg{err: err}) // io.EOF included
			return
		}
		if !ps.send(msg{b: b}) {
			return // exchange closed; stop producing
		}
	}
}

// send enqueues m unless the exchange has been closed.
func (ps *partStream) send(m msg) bool {
	select {
	case ps.ch <- m:
		return true
	case <-ps.stop:
		return false
	}
}

// Sch is the output schema.
func (ex *Exchange) Sch() *schema.Schema { return ex.sch }

// Next returns the next batch in partition order: partition 0 to
// exhaustion, then partition 1, and so on. A partition whose task is
// still queued when the merge reaches it is claimed away from the pool
// and pulled inline — the merge never waits on a queue position, only
// on work actually executing, which is what makes a small pool shared
// by many queries safe. A partition error tears the exchange down and
// surfaces as the iterator's error.
func (ex *Exchange) Next() (*urel.Batch, error) {
	if ex.done {
		return nil, io.EOF
	}
	for ex.cur < len(ex.parts) {
		ps := ex.parts[ex.cur]
		if !ps.inline && ps.task != nil && ex.pool.ClaimInline(ps.task) {
			// The pool had not started this partition: run its fragment
			// lazily on this goroutine, exactly as serial execution
			// would. done is already satisfied — the claimed task will
			// never touch storage from another goroutine.
			close(ps.done)
			ps.inline = true
			for _, st := range ex.sinks {
				st.InlineRuns.Add(1)
			}
		}
		if ps.inline {
			b, err := ex.nextInline(ps)
			switch {
			case err == io.EOF:
				ex.cur++
			case err != nil:
				ex.Close()
				return nil, err
			default:
				return b, nil
			}
			continue
		}
		m := <-ps.ch
		switch {
		case m.err == io.EOF:
			ex.cur++
		case m.err != nil:
			ex.Close()
			return nil, m.err
		default:
			return m.b, nil
		}
	}
	ex.done = true
	return nil, io.EOF
}

// nextInline pulls one batch of a consumer-claimed partition, opening
// its fragment on first use. io.EOF closes the fragment.
func (ex *Exchange) nextInline(ps *partStream) (*urel.Batch, error) {
	if ps.inlineIt == nil {
		it, err := ex.open(ps.part)
		if err != nil {
			return nil, err
		}
		ps.inlineIt = it
	}
	b, err := ps.inlineIt.Next()
	if err != nil {
		ps.inlineIt.Close()
		ps.inlineIt = nil
	}
	return b, err
}

// Close stops every partition worker and blocks until none can touch
// the storage under the fragments any more: running workers are joined
// (releasing their fragment iterators), queued tasks are cancelled so
// the pool will never start them, and the consumer's own inline
// fragment is closed. The storage is quiescent when Close returns —
// the ordering a snapshot release depends on. Idempotent.
func (ex *Exchange) Close() error {
	if ex.closed {
		return nil
	}
	ex.closed = true
	ex.done = true
	for _, ps := range ex.parts {
		close(ps.stop)
		if ps.task != nil && !ps.inline && ex.pool.Cancel(ps.task) {
			// Never started and never will: satisfy its join.
			close(ps.done)
		}
		if ps.inlineIt != nil {
			ps.inlineIt.Close()
			ps.inlineIt = nil
		}
	}
	// Workers blocked on a full queue were released by stop; workers
	// mid-batch finish it, fail the send, and exit. Drain nothing:
	// send's select makes delivery and stop race-free.
	for _, ps := range ex.parts {
		<-ps.done
	}
	return nil
}
