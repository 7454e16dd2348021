package parallel

// The worker pool caps the total number of partition-worker goroutines
// an engine runs across all of its concurrent exchanges and
// partitioned pipeline breakers. Without a pool, q concurrent queries
// at parallelism p spawn q×p goroutines; with one, at most Size pool
// workers exist at any instant and excess fragments queue.
//
// Deadlock freedom does not depend on the pool's capacity: every task
// is claimable, and a consumer that needs a fragment which has not
// started yet claims it and runs it inline on its own goroutine (the
// same code path serial execution would take). A saturated pool
// therefore degrades to serial execution instead of blocking — queued
// fragments are a latency hint, never a correctness hazard.

import (
	"sync"
	"sync/atomic"
)

// Task is one queued fragment: a unit of work submitted to a Pool.
// Exactly one party ever runs it — a pool worker, the consumer (via
// RunInline), or nobody (via Cancel); the claim is a single CAS.
type Task struct {
	claimed atomic.Bool
	fn      func()
	done    func() // completion signal; nil if the submitter has none
}

// Pool runs submitted tasks on at most Size concurrent worker
// goroutines. Workers are spawned on demand and exit when the queue
// drains, so an idle pool holds no goroutines at all. Safe for
// concurrent use.
type Pool struct {
	mu      sync.Mutex
	size    int
	running int     // live worker goroutines
	queue   []*Task // FIFO of submitted, possibly claimed, tasks

	busy    atomic.Int64 // tasks executing on pool workers right now
	busyHW  atomic.Int64 // high-water mark of busy
	queued  atomic.Int64 // submitted tasks not yet claimed
	inline  atomic.Int64 // tasks claimed and run by consumers (total)
	ranPool atomic.Int64 // tasks run by pool workers (total)
}

// NewPool returns a pool of the given capacity (minimum 1).
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{size: size}
}

// Size is the pool's worker capacity.
func (p *Pool) Size() int { return p.size }

// Busy gauges tasks currently executing on pool workers (inline runs
// by consumer goroutines are not pool workers and do not count).
func (p *Pool) Busy() int64 { return p.busy.Load() }

// BusyHighWater is the maximum the Busy gauge has ever reached — by
// construction never above Size, which is the pool's enforced cap on
// concurrent worker goroutines.
func (p *Pool) BusyHighWater() int64 { return p.busyHW.Load() }

// Queued gauges submitted tasks not yet claimed by any runner.
func (p *Pool) Queued() int64 { return p.queued.Load() }

// InlineRuns counts tasks consumers claimed and ran on their own
// goroutine because no pool worker had started them yet.
func (p *Pool) InlineRuns() int64 { return p.inline.Load() }

// PoolRuns counts tasks executed by pool workers.
func (p *Pool) PoolRuns() int64 { return p.ranPool.Load() }

// Submit enqueues fn and returns immediately; fn runs on a pool worker
// when one frees up, unless the caller claims it first with RunInline
// or Cancel. Submit never blocks.
//
// done, when non-nil, is the task's completion signal: whoever runs fn
// calls done right after it, and a pool worker does so only once its
// Busy gauge no longer counts the task. So a waiter woken by done never
// observes the task as busy. ClaimInline and Cancel do not call done;
// the claiming party completes the task itself.
func (p *Pool) Submit(fn, done func()) *Task {
	t := &Task{fn: fn, done: done}
	p.queued.Add(1)
	p.mu.Lock()
	p.queue = append(p.queue, t)
	spawn := p.running < p.size
	if spawn {
		p.running++
	}
	p.mu.Unlock()
	if spawn {
		go p.worker()
	}
	return t
}

// worker drains the queue, then exits. The exit check happens under
// the same lock Submit appends under, so a task enqueued concurrently
// with an exiting worker either gets popped by it or sees running <
// size and spawns a replacement — never both, never neither.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		var t *Task
		for len(p.queue) > 0 {
			cand := p.queue[0]
			// Nil the popped slot so a claimed-elsewhere task's closure
			// (and whatever snapshot state it captured) is not pinned by
			// the queue's backing array.
			p.queue[0] = nil
			p.queue = p.queue[1:]
			if cand.claimed.CompareAndSwap(false, true) {
				t = cand
				break
			}
			// Already claimed by a consumer (inline run or cancel):
			// drop it and keep looking.
		}
		if t == nil {
			p.queue = nil // release the drained backing array
			p.running--
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		p.queued.Add(-1)
		b := p.busy.Add(1)
		for {
			hw := p.busyHW.Load()
			if b <= hw || p.busyHW.CompareAndSwap(hw, b) {
				break
			}
		}
		t.fn()
		p.ranPool.Add(1)
		p.busy.Add(-1)
		t.complete()
	}
}

// complete signals the task's completion, if it has a signal.
func (t *Task) complete() {
	if t.done != nil {
		t.done()
	}
}

// RunInline claims t if no pool worker has started it and runs it on
// the calling goroutine, reporting whether it ran. This is how a
// consumer blocked on a queued fragment guarantees its own progress —
// and why the pool can never deadlock, whatever its size.
func (p *Pool) RunInline(t *Task) bool {
	if !p.ClaimInline(t) {
		return false
	}
	t.fn()
	t.complete()
	return true
}

// ClaimInline claims t for the calling goroutine WITHOUT running its
// submitted fn, reporting whether the claim succeeded. The exchange
// merge uses it to take over a not-yet-started partition and pull its
// fragment lazily instead; the claim counts as an inline run so the
// metrics account for every executed fragment.
func (p *Pool) ClaimInline(t *Task) bool {
	if t == nil || !t.claimed.CompareAndSwap(false, true) {
		return false
	}
	p.queued.Add(-1)
	p.inline.Add(1)
	return true
}

// Cancel claims t if it has not started, so it will never run.
// Reports whether the task was cancelled; false means it is running
// (or already ran) and the caller must wait for its completion signal.
func (p *Pool) Cancel(t *Task) bool {
	if t == nil || !t.claimed.CompareAndSwap(false, true) {
		return false
	}
	p.queued.Add(-1)
	return true
}

// Run executes jobs 0..n-1 on the pool and blocks until every one has
// finished, returning the first error in job order. The calling
// goroutine claims and runs still-queued jobs itself while it waits,
// so Run completes even when the pool is saturated by other queries —
// the barrier can stall only behind jobs actually executing. A nil
// pool runs every job on the caller. This is the scheduling primitive
// behind partitioned pipeline breakers (partial aggregation, sort
// runs, distinct sets), whose merge step needs all partials present.
func Run(pool *Pool, n int, job func(i int) error) error {
	errs := make([]error, n)
	if pool == nil || n <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = job(i)
		}
		return firstErr(errs)
	}
	var wg sync.WaitGroup
	wg.Add(n)
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = pool.Submit(func() { errs[i] = job(i) }, wg.Done)
	}
	// Whatever the pool has not started yet, run here: the barrier
	// must not wait on a queue position.
	for _, t := range tasks {
		pool.RunInline(t)
	}
	wg.Wait()
	return firstErr(errs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
