package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"maybms/internal/db"
)

// metricDef names a reported metric; BENCHMARK.json lists the same.
type metricDef struct{ name, unit, better string }

var endToEndMetrics = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"success_ratio", "fraction", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
}

var perLayerMetrics = []metricDef{
	{"lineage.simplify_ms", "ms", "lower"},
	{"lineage.clauses_in", "count", "lower"},
	{"lineage.clauses_out", "count", "lower"},
	{"conf.sprout_ms", "ms", "lower"},
	{"conf.sprout_ratio", "fraction", "higher"},
	{"conf.exact_ms", "ms", "lower"},
	{"conf.exact_steps", "count", "lower"},
	{"conf.approx_ms", "ms", "lower"},
	{"conf.approx_trials", "count", "lower"},
	{"conf.agg_self_share", "fraction", "higher"},
	{"sql.parse_us", "us", "lower"},
	{"db.open_hit_ms", "ms", "lower"},
	{"db.open_miss_ms", "ms", "lower"},
	{"db.plan_cache_hit_ratio", "fraction", "higher"},
	{"exec.op.Scan.self_ms", "ms", "lower"},
	{"exec.op.Filter.self_ms", "ms", "lower"},
	{"exec.op.Project.self_ms", "ms", "lower"},
	{"exec.op.HashJoin.self_ms", "ms", "lower"},
	{"exec.op.Product.self_ms", "ms", "lower"},
	{"exec.op.Aggregate.self_ms", "ms", "lower"},
	{"exec.op.Sort.self_ms", "ms", "lower"},
	{"exec.drain_ms", "ms", "lower"},
	{"exec.rows_scanned_per_row_out", "ratio", "lower"},
	{"exec.semijoin_pruned", "count", "higher"},
	{"exec.parallel.partitions_per_op", "count", "lower"},
	{"exec.parallel.inline_ratio", "fraction", "lower"},
	{"exec.parallel.pool_busy_max", "count", "lower"},
	{"wire.encode_us_per_row", "us", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.round_trips_per_op", "count", "lower"},
	{"db.txn.commits_s", "commits/s", "higher"},
	{"db.txn.commit_ms", "ms", "lower"},
	{"db.txn.conflict_ratio", "fraction", "lower"},
	{"db.txn.retries_per_commit", "count", "lower"},
	{"storage.wal.fsyncs_per_commit", "count", "lower"},
	{"storage.wal.bytes_per_commit", "bytes", "lower"},
	{"storage.wal.appends_per_commit", "count", "lower"},
	{"storage.fsync_ms", "ms", "lower"},
	{"storage.checkpoints", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// counters is a reading of the engine's own counters.
type counters struct {
	hits, misses         int64
	partitions, inline   int64
	commits, conflicts   int64
	appends, fsyncs      int64
	walBytes, ckpts      int64
	fsyncCount, fsyncSum float64
}

func readCounters(eng *db.Database) counters {
	var c counters
	c.hits, c.misses, _ = eng.PlanCacheStats()
	ps := eng.ParallelStats()
	c.partitions, c.inline = ps.Partitions.Load(), ps.InlineRuns.Load()
	ts := eng.TxnStats()
	c.commits, c.conflicts = ts.Commits, ts.Conflicts
	ss := eng.StorageStats()
	c.appends, c.fsyncs, c.walBytes, c.ckpts = ss.WALAppends, ss.WALFsyncs, ss.WALBytes, ss.Checkpoints
	c.fsyncCount, c.fsyncSum = histTotals(eng)
	return c
}

// histTotals reads the count and sum (seconds) of the WAL fsync
// latency histogram from its Prometheus rendering.
func histTotals(eng *db.Database) (count, sum float64) {
	var buf bytes.Buffer
	eng.FsyncHist().Write(&buf, "h", "")
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "h_count":
			count = v
		case "h_sum":
			sum = v
		}
	}
	return count, sum
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer is the traced run. Its first half is an untraced HTTP loop
// over the workload's sequences, read through the engine's counters;
// its second half replays the same sequences three ways per request
// (runReplay). A metric whose layer the workload does not reach is 0.
func perLayer(in *instance, w *workload, pool []*op, cfg runConfig, led *ledger, t *tally) (map[string]metric, error) {
	eng := in.db.Engine()
	c0 := readCounters(eng)
	lr, err := runLoop(in, sequences(w, pool, cfg), cfg.sz.warmup, cfg.dur/2, led, cfg.sz.accts, t)
	if err != nil {
		return nil, err
	}
	c1 := readCounters(eng)
	ops := float64(len(lr.latMS))
	rec := newRecorder()
	if err := runReplay(in, sequences(w, pool, cfg), cfg.dur/2, led, cfg.sz.accts, cfg.seed, rec, t); err != nil {
		return nil, err
	}
	commits := float64(lr.commits)
	d := func(a, b int64) float64 { return float64(b - a) }
	v := map[string]float64{
		"lineage.simplify_ms":             rec.mean("lineage.simplify_ms"),
		"lineage.clauses_in":              rec.mean("lineage.clauses_in"),
		"lineage.clauses_out":             rec.mean("lineage.clauses_out"),
		"conf.sprout_ms":                  rec.mean("conf.sprout_ms"),
		"conf.sprout_ratio":               rec.ratio("sprout_resolved", "sprout_events"),
		"conf.exact_ms":                   rec.mean("conf.exact_ms"),
		"conf.exact_steps":                rec.mean("conf.exact_steps"),
		"conf.approx_ms":                  rec.mean("conf.approx_ms"),
		"conf.approx_trials":              rec.mean("conf.approx_trials"),
		"conf.agg_self_share":             rec.ratio("conf_replay_ms", "agg_self_ms"),
		"sql.parse_us":                    rec.mean("sql.parse_us"),
		"db.open_hit_ms":                  rec.mean("db.open_hit_ms"),
		"db.open_miss_ms":                 rec.mean("db.open_miss_ms"),
		"db.plan_cache_hit_ratio":         div(d(c0.hits, c1.hits), d(c0.hits, c1.hits)+d(c0.misses, c1.misses)),
		"exec.drain_ms":                   rec.mean("exec.drain_ms"),
		"exec.rows_scanned_per_row_out":   rec.ratio("scan_rows", "out_rows"),
		"exec.semijoin_pruned":            rec.mean("exec.semijoin_pruned"),
		"exec.parallel.partitions_per_op": div(d(c0.partitions, c1.partitions), ops),
		"exec.parallel.inline_ratio":      div(d(c0.inline, c1.inline), d(c0.partitions, c1.partitions)),
		"exec.parallel.pool_busy_max":     float64(eng.WorkerPool().BusyHighWater()),
		"wire.encode_us_per_row":          rec.ratio("wire_us", "wire_rows"),
		"server.overhead_ms":              rec.median("server.overhead_ms"),
		"server.round_trips_per_op":       div(float64(lr.trips), ops),
		"db.txn.commits_s":                div(commits, lr.elapsed),
		"db.txn.commit_ms":                rec.mean("db.txn.commit_ms"),
		"db.txn.conflict_ratio":           div(d(c0.conflicts, c1.conflicts), d(c0.commits, c1.commits)+d(c0.conflicts, c1.conflicts)),
		"db.txn.retries_per_commit":       div(float64(lr.retries), commits),
		"storage.wal.fsyncs_per_commit":   div(d(c0.fsyncs, c1.fsyncs), commits),
		"storage.wal.bytes_per_commit":    div(d(c0.walBytes, c1.walBytes), commits),
		"storage.wal.appends_per_commit":  div(d(c0.appends, c1.appends), commits),
		"storage.fsync_ms":                1000 * div(c1.fsyncSum-c0.fsyncSum, c1.fsyncCount-c0.fsyncCount),
		"storage.checkpoints":             d(c0.ckpts, c1.ckpts),
		"trace.overhead_pct":              rec.median("trace.overhead_pct"),
	}
	for _, name := range tracedOps {
		v["exec.op."+name+".self_ms"] = rec.mean("exec.op." + name + ".self_ms")
	}
	if w.name == "conf_lineage" && v["conf.agg_self_share"] < 0.5 {
		fmt.Fprintf(os.Stderr, "perfbench: replayed conf() time is only %.0f%% of the Aggregate operator's self time\n", 100*v["conf.agg_self_share"])
	}
	m := make(map[string]metric, len(perLayerMetrics))
	for _, def := range perLayerMetrics {
		m[def.name] = metric{v[def.name], def.unit}
	}
	return m, nil
}
