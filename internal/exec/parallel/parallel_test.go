package parallel

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"maybms/internal/schema"
	"maybms/internal/types"
	"maybms/internal/urel"
)

func intSchema() *schema.Schema {
	return schema.New(schema.Column{Name: "a", Kind: types.KindInt})
}

// sliceIter streams a range of ints as single-tuple batches.
type sliceIter struct {
	vals []int64
	pos  int
	fail error // returned instead of io.EOF after the values
}

func (it *sliceIter) Sch() *schema.Schema { return intSchema() }

func (it *sliceIter) Next() (*urel.Batch, error) {
	if it.pos >= len(it.vals) {
		if it.fail != nil {
			return nil, it.fail
		}
		return nil, io.EOF
	}
	v := it.vals[it.pos]
	it.pos++
	return &urel.Batch{Tuples: []urel.Tuple{{Data: schema.Tuple{types.NewInt(v)}}}}, nil
}

func (it *sliceIter) Close() error { return nil }

func drainInts(t *testing.T, it urel.Iterator) []int64 {
	t.Helper()
	rel, err := urel.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rel.Tuples))
	for i, tp := range rel.Tuples {
		out[i] = tp.Data[0].Int()
	}
	return out
}

func TestExchangeOrderPreservingMerge(t *testing.T) {
	var stats Stats
	ex := New(intSchema(), 4, nil, func(part int) (urel.Iterator, error) {
		vals := make([]int64, 0, 10)
		for i := 0; i < 10; i++ {
			vals = append(vals, int64(part*10+i))
		}
		return &sliceIter{vals: vals}, nil
	}, &stats)
	got := drainInts(t, ex)
	if len(got) != 40 {
		t.Fatalf("got %d values, want 40", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("position %d: got %d — merge is not partition-ordered", i, v)
		}
	}
	if n := stats.Exchanges.Load(); n != 1 {
		t.Errorf("stats.Exchanges = %d, want 1", n)
	}
	if n := stats.Partitions.Load(); n != 4 {
		t.Errorf("stats.Partitions = %d, want 4", n)
	}
	if n := stats.WorkersBusy.Load(); n != 0 {
		t.Errorf("stats.WorkersBusy = %d after drain, want 0", n)
	}
}

func TestExchangePartitionError(t *testing.T) {
	boom := errors.New("boom")
	ex := New(intSchema(), 3, nil, func(part int) (urel.Iterator, error) {
		if part == 1 {
			return &sliceIter{vals: []int64{100}, fail: boom}, nil
		}
		return &sliceIter{vals: []int64{int64(part)}}, nil
	})
	_, err := urel.Drain(ex)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestExchangeOpenError(t *testing.T) {
	ex := New(intSchema(), 2, nil, func(part int) (urel.Iterator, error) {
		if part == 0 {
			return nil, fmt.Errorf("cannot open")
		}
		return &sliceIter{vals: []int64{1}}, nil
	})
	if _, err := urel.Drain(ex); err == nil {
		t.Fatal("want open error to surface")
	}
}

// Closing mid-stream (the LIMIT path) must stop and join every worker,
// including ones blocked on a full queue.
func TestExchangeEarlyClose(t *testing.T) {
	big := make([]int64, 10000)
	for i := range big {
		big[i] = int64(i)
	}
	var stats Stats
	ex := New(intSchema(), 8, nil, func(part int) (urel.Iterator, error) {
		return &sliceIter{vals: big}, nil
	}, &stats)
	if _, err := ex.Next(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for workers; the busy gauge must be back to zero.
	if n := stats.WorkersBusy.Load(); n != 0 {
		t.Fatalf("stats.WorkersBusy = %d after Close, want 0", n)
	}
	if _, err := ex.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v, want io.EOF", err)
	}
	if err := ex.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A pool-backed exchange must produce exactly the same merged stream,
// even when the pool is smaller than the partition count (the merge
// claims unstarted partitions inline).
func TestExchangeOnSmallPool(t *testing.T) {
	for _, poolSize := range []int{1, 2, 8} {
		pool := NewPool(poolSize)
		var stats Stats
		ex := New(intSchema(), 6, pool, func(part int) (urel.Iterator, error) {
			vals := make([]int64, 0, 10)
			for i := 0; i < 10; i++ {
				vals = append(vals, int64(part*10+i))
			}
			return &sliceIter{vals: vals}, nil
		}, &stats)
		got := drainInts(t, ex)
		if len(got) != 60 {
			t.Fatalf("pool %d: got %d values, want 60", poolSize, len(got))
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("pool %d: position %d: got %d — merge not partition-ordered", poolSize, i, v)
			}
		}
		if hw := pool.BusyHighWater(); hw > int64(poolSize) {
			t.Fatalf("pool %d: busy high-water %d exceeds cap", poolSize, hw)
		}
		if n := stats.WorkersBusy.Load(); n != 0 {
			t.Fatalf("pool %d: WorkersBusy = %d after drain, want 0", poolSize, n)
		}
	}
}

// Closing a pool-backed exchange early must account for every
// partition: running workers are joined, queued tasks cancelled so the
// pool never starts them later — the regression for Close ordering
// with breaker workers sharing the pool. After Close returns, no
// partition may touch its fragment again (that is what lets the caller
// release the snapshot under the fragments).
func TestExchangeCloseCancelsQueuedTasks(t *testing.T) {
	pool := NewPool(1)
	gate := make(chan struct{})
	var opens atomic.Int64
	var stats Stats
	big := make([]int64, 5000)
	ex := New(intSchema(), 8, pool, func(part int) (urel.Iterator, error) {
		opens.Add(1)
		if part == 0 {
			<-gate // hold the only pool worker mid-fragment
		}
		return &sliceIter{vals: big}, nil
	}, &stats)
	// Partition 0 occupies the single pool worker; partitions 1..7 are
	// queued. Release the worker, then close before draining.
	close(gate)
	if _, err := ex.Next(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if n := stats.WorkersBusy.Load(); n != 0 {
		t.Fatalf("WorkersBusy = %d after Close, want 0", n)
	}
	if b := pool.Busy(); b != 0 {
		t.Fatalf("pool.Busy = %d after Close, want 0", b)
	}
	// Give a would-be stray worker a chance to run a cancelled task.
	pool.Submit(func() {}, nil)
	time.Sleep(10 * time.Millisecond)
	if q := pool.Queued(); q != 0 {
		t.Fatalf("pool.Queued = %d after Close, want 0", q)
	}
	if n := opens.Add(0); n > 8 {
		t.Fatalf("fragments opened %d times for 8 partitions", n)
	}
}
