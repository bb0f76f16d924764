package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testShrink lowers each workload's sizes so a run stays short under -race.
var testShrink = map[string]int{"api-small": 4, "native-large": 10, "sim-burst": 6}

func testOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.3, trace: trace, setups: 1, shrink: testShrink[workload]}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w.Name, 42, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w.Name, 42, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two job lists from seed 42 differ", w.Name)
		}
		c, _ := generate(w.Name, 43, 0)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 42 and 43 gave the same job list", w.Name)
		}
		// Any seed gives the same mix, in another order with other data.
		mix := func(jobs []job) []string {
			var out []string
			for _, j := range jobs {
				out = append(out, j.class())
			}
			slices.Sort(out)
			return out
		}
		if !slices.Equal(mix(a), mix(c)) {
			t.Fatalf("%s: seeds 42 and 43 gave different job mixes", w.Name)
		}
	}
}

func TestGateTripsOnCorruptedOutput(t *testing.T) {
	jobs, err := generate("api-small", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:12] {
		good := output{sorted: slices.Clone(j.in.sorted), sum: &j.in.sum}
		var acc int64
		for _, v := range j.in.data {
			acc += int64(v)
			good.scan = append(good.scan, acc)
		}
		if err := verify(j, good); err != nil {
			t.Fatalf("job %d: correct output rejected: %v", j.Index, err)
		}
		bad := good
		bad.sorted = slices.Clone(good.sorted)
		bad.sorted[len(bad.sorted)-1]--
		bad.scan = slices.Clone(good.scan)
		bad.scan[0]++
		off := j.in.sum + 1
		bad.sum = &off
		if err := verify(j, bad); err == nil {
			t.Fatalf("job %d (%s): corrupted output accepted", j.Index, j.class())
		}
	}

	// End to end: one damaged result fails the run and names the job.
	corrupt = func(j job, out output) {
		if j.Index == 3 && j.Alg == "mergesort" && len(out.sorted) > 1 {
			out.sorted[0], out.sorted[1] = out.sorted[1]+1, out.sorted[0]
		}
	}
	defer func() { corrupt = nil }()
	o := testOptions("native-large", false)
	jobs, _ = generate(o.workload, o.seed, o.shrink)
	for jobs[3].Alg != "mergesort" {
		o.seed++
		jobs, _ = generate(o.workload, o.seed, o.shrink)
	}
	_, _, err = run(o)
	var bad *mismatch
	if !errors.As(err, &bad) {
		t.Fatalf("run with a corrupted output returned %v, want a mismatch", err)
	}
	if bad.job.Index != 3 || !strings.Contains(err.Error(), "native-large") {
		t.Fatalf("mismatch %q does not name the workload and job 3", err)
	}
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Fatalf("metric %s missing", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Fatalf("metric %s = %+v, want a finite value in %s", d.Name, v, d.Unit)
		}
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, _, err := run(testOptions(w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			checkMetrics(t, res, endToEnd)
			for _, name := range []string{"setup_s", "jobs_per_s", "elements_per_s", "latency_p50_s", "latency_tail_s", "makespan_vs", "ok_share", "max_rss_bytes"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}

			res, _, err = run(testOptions(w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, layerDefs())
			if res.Metrics["trace.overhead"].Value <= 0 {
				t.Errorf("trace.overhead = %v", res.Metrics["trace.overhead"].Value)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(b.Workloads) || b.Workloads[i].Name != w.Name {
			t.Fatalf("BENCHMARK.json workloads %v, want %s at %d", b.Workloads, w.Name, i)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Fatalf("%s[%d] = %+v, catalog has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, layerDefs())
}
