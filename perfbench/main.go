// Command perfbench is the repository benchmark. It runs one named workload
// from a seed, verifies every output bit for bit against plain Go, and
// prints its metrics as the last line of standard output:
//
//	go run . --workload api-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// each layer through spans it records around its own calls into the
// program, and prints the per-layer metrics. --describe lists every
// workload and metric with its unit, time base and what it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart anchors the first set-up's clock at process start.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	shrink   int    // lowers every job's log size; self-tests only
	spansDir string // where a traced run writes its spans ("" = nowhere)
}

// runner is one workload. setup builds its stack and runs the warm-up;
// measure runs jobs for about d and verifies each; layers adds the
// workload's per-layer metrics after a traced window.
type runner interface {
	setup() error
	measure(d time.Duration, tr *tracer) (*window, error)
	makespans() ([]float64, error)
	layers(tr *tracer, w *window, lm map[string]float64) error
	close() error
}

func newRunner(o options, jobs []job) (runner, error) {
	switch o.workload {
	case "api-small":
		return &apiSmall{o: o, jobs: jobs}, nil
	case "native-large":
		return &nativeLarge{o: o, jobs: jobs}, nil
	case "sim-burst":
		return &simBurst{o: o, jobs: jobs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: 3}
	var traceFlag int
	var describeFlag bool
	fs.StringVar(&o.workload, "workload", "", "api-small, native-large or sim-burst")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the job list and inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory a traced run writes its spans to")
	fs.BoolVar(&describeFlag, "describe", false, "list the workloads and metrics and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if describeFlag {
		fmt.Fprint(stdout, describe())
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o.trace = traceFlag == 1
	res, report, err := run(o)
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	var bad *mismatch
	if errors.As(err, &bad) {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
		printResult(stdout, res)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		return 1
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, res result) {
	if res.Metrics == nil {
		res.Metrics = map[string]value{}
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// run sets the workload up o.setups times, measures it, and collects the
// metrics the trace mode asks for, plus the self-describing report lines.
func run(o options) (result, []string, error) {
	res := result{Correct: true}
	nproc := runtime.NumCPU()
	report := []string{fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%t go=%s GOMAXPROCS=%d nproc=%d setups=%d",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), nproc, o.setups)}

	var r runner
	var setups []float64
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if r != nil {
			if err := r.close(); err != nil {
				return res, report, err
			}
			r = nil
			runtime.GC()
			start = time.Now()
		}
		jobs, err := generate(o.workload, o.seed, o.shrink)
		if err != nil {
			return res, report, err
		}
		if r, err = newRunner(o, jobs); err != nil {
			return res, report, err
		}
		if err := r.setup(); err != nil {
			r.close()
			return res, report, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()
	report = append(report, "# set-ups (s): "+fmtFloats(setups))
	d := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		w, err := r.measure(d, nil)
		if w != nil {
			res.Attempted, res.Failed = w.attempted, w.failed
			report = append(report, w.notes...)
		}
		if err != nil {
			return res, report, err
		}
		spans, err := r.makespans()
		if err != nil {
			return res, report, err
		}
		tailV, t := w.latencyTail()
		m := map[string]float64{
			"setup_s":        median(setups),
			"jobs_per_s":     w.jobsPerS(),
			"elements_per_s": w.elementsPerS(),
			"latency_p50_s":  w.latencyP50(),
			"latency_tail_s": tailV,
			"makespan_vs":    median(spans),
			"ok_share":       ratio(float64(w.verified), float64(w.attempted)),
			"max_rss_bytes":  maxRSS(),
		}
		report = append(report,
			"# "+describeTail(t, len(w.parts)),
			fmt.Sprintf("# failed_share = %g (%d of %d attempted); makespans (virtual s): %s",
				ratio(float64(w.failed), float64(w.attempted)), w.failed, w.attempted, fmtFloats(spans)))
		res.Metrics, err = collect(m, endToEnd, &report)
		return res, report, err
	}

	// Traced: an untraced half-window for the overhead baseline, then the
	// traced half-window between two counter snapshots.
	wu, err := r.measure(d/2, nil)
	if err != nil {
		return res, report, err
	}
	tr := newTracer()
	before := snapCounters()
	w, err := r.measure(d/2, tr)
	after := snapCounters()
	if w != nil {
		res.Attempted, res.Failed = wu.attempted+w.attempted, wu.failed+w.failed
		report = append(report, w.notes...)
	}
	if err != nil {
		return res, report, err
	}
	lm := map[string]float64{}
	for _, def := range layerDefs() {
		lm[def.Name] = 0 // layers this workload leaves idle report 0
	}
	commonLayers(lm, w, before, after)
	lm["trace.overhead"] = ratio(w.jobsPerS(), wu.jobsPerS())
	if err := r.layers(tr, w, lm); err != nil {
		return res, report, err
	}
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return res, report, err
		}
		report = append(report, "# spans written to "+path)
	}
	res.Metrics, err = collect(lm, layerDefs(), &report)
	return res, report, err
}

// collect checks that every catalog metric is present and finite, and
// renders each into the report with its unit and time base.
func collect(m map[string]float64, defs []metricDef, report *[]string) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, def := range defs {
		v, ok := m[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", def.Name, v)
		}
		out[def.Name] = value{Value: v, Unit: def.Unit}
		*report = append(*report, fmt.Sprintf("metric %-38s %-14.6g %s (%s time)", def.Name, v, def.Unit, def.Base))
	}
	if len(m) != len(defs) {
		var extra []string
		for k := range m {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the catalog: %v", extra)
	}
	return out, nil
}
