package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"maybms"
	"maybms/internal/conf"
	"maybms/internal/conf/naive"
	"maybms/internal/lineage"
)

// TestWorkloadsToy runs every workload at toy size in both modes: all
// answer gates pass and every metric BENCHMARK.json names is reported.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := runConfig{sz: toySizes, seed: 3, dur: time.Second, traced: traced, dataRoot: t.TempDir()}
				res, fp, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if fp.Completed != res.Attempted || fp.Clients != w.clients {
					t.Errorf("fingerprint %+v disagrees with the result", fp)
				}
				defs := endToEndMetrics
				if traced {
					defs = perLayerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, ok=%v", d.name, m, ok)
					}
				}
				if traced && w.name == "conf_lineage" {
					// The chain joins must reach the d-tree.
					if r := res.Metrics["conf.sprout_ratio"].Value; r <= 0 || r >= 1 {
						t.Errorf("conf.sprout_ratio = %v, want in (0, 1)", r)
					}
					if s := res.Metrics["conf.exact_steps"].Value; s <= 0 {
						t.Errorf("conf.exact_steps = %v, want > 0", s)
					}
				}
			})
		}
	}
}

// TestConfMatchesNaive anchors the references in an oracle that shares
// no code with the engine: on a small repair-key instance, SQL conf()
// matches possible-worlds enumeration, and conf.Compute on the lineage
// the traced run replays equals the SQL answer exactly.
func TestConfMatchesNaive(t *testing.T) {
	db := maybms.OpenOptions(maybms.Options{Seed: 1})
	sz := sizes{baseRows: 40}
	if err := buildConfDB(db, sz); err != nil {
		t.Fatal(err)
	}
	queries := []*op{
		confOp(kindConf, "conf()", "from u where grp >= 2 and grp < 8", "grp", 0),
		confOp(kindConf, "conf()", "from u where val >= 200 and val < 450", "val", 0),
		confOp(kindConf, "conf()", "from u a, un b where a.grp = b.nxt and a.grp >= 3 and a.grp < 9 and a.val % 2 = 0 and b.val % 2 = 0", "a.grp", 0),
		confOp(kindConf, "conf()", "from u where grp >= 1 and grp < 9", "grp", 1),
	}
	eng := db.Engine()
	for _, o := range queries {
		rows, err := db.Query(o.sql)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for _, row := range rows.Data {
			want[groupKey(row, o.groupCols)] = row[len(row)-1].(float64)
		}
		rel, err := eng.QueryRel(o.lineage, false)
		if err != nil {
			t.Fatal(err)
		}
		lin := maybms.RowsFromRel(rel)
		events := map[string]lineage.DNF{}
		for i, tup := range rel.Tuples {
			k := groupKey(lin.Data[i], o.groupCols)
			events[k] = append(events[k], tup.Cond)
		}
		if len(events) != len(want) || len(events) == 0 {
			t.Fatalf("%s: %d events, %d SQL groups", o.sql, len(events), len(want))
		}
		for k, d := range events {
			if vars := len(d.Vars()); vars > 10 {
				t.Fatalf("%s: %d variables is too many to enumerate", o.sql, vars)
			}
			if p := naive.Prob(d, eng.Store()); math.Abs(p-want[k]) > 1e-9 {
				t.Errorf("%s [%q]: conf() = %v, possible worlds give %v", o.sql, k, want[k], p)
			}
			p, err := conf.Compute(d, eng.Store(), conf.Request{})
			if err != nil || p != want[k] {
				t.Errorf("%s [%q]: conf.Compute = %v (%v), SQL answered %v", o.sql, k, p, err, want[k])
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d = %+v, want %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}
