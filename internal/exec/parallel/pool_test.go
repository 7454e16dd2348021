package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The pool must never run more than Size tasks concurrently, and its
// high-water gauge must prove it.
func TestPoolCapsConcurrency(t *testing.T) {
	const cap = 3
	p := NewPool(cap)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		p.Submit(func() {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}, wg.Done)
	}
	wg.Wait()
	if m := max.Load(); m > cap {
		t.Fatalf("observed %d concurrent tasks, pool cap is %d", m, cap)
	}
	if hw := p.BusyHighWater(); hw > cap {
		t.Fatalf("BusyHighWater = %d, cap is %d", hw, cap)
	}
	if hw := p.BusyHighWater(); hw < 1 {
		t.Fatalf("BusyHighWater = %d, want at least 1", hw)
	}
	if q := p.Queued(); q != 0 {
		t.Fatalf("Queued = %d after drain, want 0", q)
	}
	if b := p.Busy(); b != 0 {
		t.Fatalf("Busy = %d after drain, want 0", b)
	}
}

// A consumer can claim a queued task and run it inline; the pool then
// skips it.
func TestPoolRunInlineAndCancel(t *testing.T) {
	p := NewPool(1)
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(func() { <-block }, wg.Done) // occupies the only worker
	ran := false
	tsk := p.Submit(func() { ran = true }, nil)
	if !p.RunInline(tsk) {
		t.Fatal("RunInline refused a queued task")
	}
	if !ran {
		t.Fatal("inline task did not run")
	}
	if p.RunInline(tsk) || p.Cancel(tsk) {
		t.Fatal("a claimed task was claimed twice")
	}
	cancelled := p.Submit(func() { t.Error("cancelled task ran") }, nil)
	if !p.Cancel(cancelled) {
		t.Fatal("Cancel refused a queued task")
	}
	close(block)
	wg.Wait()
	if n := p.InlineRuns(); n != 1 {
		t.Fatalf("InlineRuns = %d, want 1", n)
	}
}

// Run is a barrier: all jobs complete before it returns, even when the
// pool is fully occupied by unrelated blocked work (the caller runs
// queued jobs itself — saturation degrades to serial, never deadlock).
func TestPoolRunUnderSaturation(t *testing.T) {
	p := NewPool(2)
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		p.Submit(func() { <-block }, wg.Done)
	}
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- Run(p, 8, func(i int) error {
			ran.Add(1)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked behind a saturated pool")
	}
	if n := ran.Load(); n != 8 {
		t.Fatalf("ran %d of 8 jobs", n)
	}
	close(block)
	wg.Wait()
}

// Run reports the first error in job order, having still waited for
// every job.
func TestPoolRunFirstError(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom 3")
	err := Run(p, 8, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != boom.Error() {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if err := Run(nil, 4, func(i int) error { return nil }); err != nil {
		t.Fatalf("nil-pool Run: %v", err)
	}
}

// A task's completion signal fires only once the Busy gauge no longer
// counts it: when Run returns, or a done callback wakes a waiter, an
// otherwise idle pool must already read Busy() == 0.
func TestPoolBusyDropsBeforeCompletion(t *testing.T) {
	p := NewPool(2)
	for i := 0; i < 10000; i++ {
		if err := Run(p, 4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if b := p.Busy(); b != 0 {
			t.Fatalf("round %d: Busy = %d after Run returned", i, b)
		}
		done := make(chan struct{})
		p.Submit(func() {}, func() { close(done) })
		<-done
		if b := p.Busy(); b != 0 {
			t.Fatalf("round %d: Busy = %d after done fired", i, b)
		}
	}
}
