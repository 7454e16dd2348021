// Command perfbench is the repository's benchmark. It runs one named
// workload in a single process: it builds the workload's database,
// serves it with internal/server on a loopback listener, and drives it
// over HTTP through the public client package in a closed loop,
// checking every answer. The last line of standard output is the JSON
// result.
//
//	perfbench -workload conf_lineage -seed 1 -seconds 20 -trace 0 -data .bench_build/data
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// reports per-layer metrics instead: it runs half the time as an
// untraced HTTP loop, reading the engine's own counters around it,
// then replays the same seeded requests in process, timing the calls
// into each layer's public functions. README.md lists the metrics and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies what produced a result.
type fingerprint struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Engine      string `json:"engine"`
	Flush       string `json:"flush"`
	Parallelism int    `json:"parallelism"`
	Clients     int    `json:"clients"`
	Attempted   int64  `json:"attempted"`
	Completed   int64  `json:"completed"`
	Failed      int64  `json:"failed"`
}

func main() {
	name := flag.String("workload", "", "workload to run: conf_lineage, relational_mix or txn_rmw")
	seed := flag.Int64("seed", 1, "seed of the workload's requests")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	data := flag.String("data", ".bench_build/data", "directory for the disk engine's data")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{sz: fullSizes, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traced == 1, dataRoot: *data}
	res, fp, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printJSON(map[string]fingerprint{"fingerprint": *fp})
	printJSON(res)
}

func printJSON(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// runConfig is one invocation's settings.
type runConfig struct {
	sz       sizes
	seed     int64
	dur      time.Duration
	traced   bool
	dataRoot string
}

// sequences builds each client's request sequence from the seed.
func sequences(w *workload, pool []*op, cfg runConfig) []sequence {
	seqs := make([]sequence, w.clients)
	for i := range seqs {
		r := rand.New(rand.NewSource(cfg.seed*7919 + int64(i) + 1))
		if pool != nil {
			seqs[i] = newPoolSeq(pool, r)
		} else {
			seqs[i] = newTxnSeq(r, cfg.sz.accts)
		}
	}
	return seqs
}

// runWorkload sets the workload up, measures it and checks it.
func runWorkload(w *workload, cfg runConfig) (res *result, fp *fingerprint, err error) {
	in, setupS, err := setup(w, cfg.sz, cfg.seed, cfg.dataRoot)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	running := true
	defer func() {
		if running {
			err = errors.Join(err, in.stop())
		}
		if in.dir != "" {
			err = errors.Join(err, os.RemoveAll(in.dir))
		}
	}()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	var pool []*op
	if w.pool != nil {
		pool = w.pool(rand.New(rand.NewSource(cfg.seed)), cfg.sz)
		if err := computeReferences(in.db, pool); err != nil {
			return nil, nil, err
		}
	}
	fp = &fingerprint{
		Workload: w.name, Seed: cfg.seed, Seconds: int(cfg.dur / time.Second), Trace: cfg.traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Engine: in.db.EngineName(), Flush: "none: memory engine",
		Parallelism: in.db.Parallelism(), Clients: w.clients,
	}
	if w.durable {
		fp.Flush = "fsync on every commit"
	}
	led := newLedger()
	t := &tally{}
	res = &result{}
	if !cfg.traced {
		lr, err := runLoop(in, sequences(w, pool, cfg), cfg.sz.warmup, cfg.dur, led, cfg.sz.accts, t)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = endToEnd(lr, setupS, heapMB)
	} else {
		m, err := perLayer(in, w, pool, cfg, led, t)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = m
	}
	t.aconfGate()
	if w.durable {
		running = false
		if err := in.stop(); err != nil {
			return nil, nil, err
		}
		err := verifyLedger(in.dir, led, cfg.sz.accts)
		t.record(&op{kind: kindSumRead}, outcome{}, err)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	if !cfg.traced {
		res.Metrics["success_ratio"] = metric{1 - float64(t.failed)/float64(t.attempted), "fraction"}
	}
	fp.Attempted, fp.Completed, fp.Failed = t.attempted, t.attempted-t.failed, t.failed
	return res, fp, nil
}

// endToEnd is the metrics of an untraced closed-loop run.
func endToEnd(lr *loopResult, setupS, heapMB float64) map[string]metric {
	return map[string]metric{
		"throughput_ops_s": {lr.throughput(), "ops/s"},
		"latency_p50_ms":   {median(lr.latMS), "ms"},
		"latency_p95_ms":   {percentile(lr.latMS, 0.95), "ms"},
		"setup_s":          {setupS, "s"},
		"heap_mb":          {heapMB, "MB"},
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}
