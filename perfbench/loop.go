package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"maybms/client"
)

// tally counts requests and answer-gate outcomes across clients.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	// estimates, misses and expectedMiss/varMiss feed the aconf gate:
	// misses may not exceed what δ allows for that many estimates.
	estimates    int64
	misses       int64
	expectedMiss float64
	varMiss      float64
	shown        int
}

// maxShown bounds the failures printed to standard error.
const maxShown = 5

func (t *tally) record(o *op, out outcome, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if o.kind == kindAconf && err == nil {
		n := float64(len(o.refP))
		t.estimates += int64(n)
		t.misses += int64(out.miss)
		t.expectedMiss += n * o.delta
		t.varMiss += n * o.delta * (1 - o.delta)
	}
	if err != nil {
		t.failed++
		if t.shown < maxShown {
			t.shown++
			fmt.Fprintf(os.Stderr, "perfbench: failed request: %v\n", err)
		}
	}
}

// aconfGate fails the run's aconf estimates as wrong answers when more
// of them missed ε than δ allows: the expected count plus three
// standard deviations.
func (t *tally) aconfGate() {
	if float64(t.misses) > t.expectedMiss+3*math.Sqrt(t.varMiss) {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d aconf estimates outside ε, more than δ allows\n", t.misses, t.estimates)
		t.failed += t.misses
	}
}

// loopResult is one closed-loop phase over HTTP.
type loopResult struct {
	latMS   []float64 // per timed request, client-observed
	elapsed float64   // seconds from the start of timing to the last reply
	retries int64
	commits int64
	trips   int64
}

// runLoop drives the instance over HTTP with one goroutine and one
// connection per client, each sending its sequence in a closed loop:
// first warmup untimed requests, then timed ones until dur has passed.
// Every answer is checked; outcomes go to t.
func runLoop(in *instance, seqs []sequence, warmup int, dur time.Duration, led *ledger, accts int, t *tally) (*loopResult, error) {
	res := &loopResult{}
	var mu sync.Mutex
	var ready, done sync.WaitGroup
	start := make(chan time.Time)
	errs := make([]error, len(seqs))
	ready.Add(len(seqs))
	done.Add(len(seqs))
	for i, seq := range seqs {
		go func() {
			defer done.Done()
			c, err := client.Open(in.url)
			if err != nil {
				errs[i] = err
				ready.Done()
				<-start
				return
			}
			defer c.Close()
			for j := 0; j < warmup; j++ {
				o := seq.next()
				out, err := httpDo(c, o, led, accts)
				t.record(o, out, err)
			}
			ready.Done()
			t0 := <-start
			deadline := t0.Add(dur)
			var lat []float64
			var retries, commits, trips int64
			for time.Now().Before(deadline) {
				o := seq.next()
				s := time.Now()
				out, err := httpDo(c, o, led, accts)
				lat = append(lat, float64(time.Since(s).Nanoseconds())/1e6)
				t.record(o, out, err)
				retries += int64(out.retries)
				commits += int64(out.commits)
				trips += int64(out.trips)
			}
			end := time.Since(t0).Seconds()
			mu.Lock()
			res.latMS = append(res.latMS, lat...)
			res.elapsed = max(res.elapsed, end)
			res.retries += retries
			res.commits += commits
			res.trips += trips
			mu.Unlock()
		}()
	}
	ready.Wait()
	now := time.Now()
	for range seqs {
		start <- now
	}
	done.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *loopResult) throughput() float64 { return float64(len(r.latMS)) / r.elapsed }

// median returns the middle value (mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile, 0 < q < 1.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}
