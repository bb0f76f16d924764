package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro"
	"repro/internal/workload"
)

// cpuBenchRow is one row of BENCH_cpu.json: breadth-first CPU makespan for
// one algorithm/size on the work-stealing engine, without and with
// automatic leaf coarsening (WithGrain(GrainAuto)). Both runs are checked
// bit-identical against the sequential baseline.
type cpuBenchRow struct {
	Alg             string  `json:"alg"`
	Size            int     `json:"size"`
	EngineSeconds   float64 `json:"engine_seconds"`
	GrainSeconds    float64 `json:"engine_grain_seconds"`
	EngineNsPerElem float64 `json:"engine_ns_per_elem"`
	GrainNsPerElem  float64 `json:"engine_grain_ns_per_elem"`
	GrainSpeedup    float64 `json:"grain_speedup"`
	Identical       bool    `json:"results_identical"`
}

// cpuBenchCase binds an algorithm constructor to a result extractor so every
// timed run can be checked bit-identical against the sequential baseline.
type cpuBenchCase struct {
	name  string
	sizes []int
	build func(data []int32) (hybriddc.Alg, error)
	value func(alg hybriddc.Alg) any
}

func cpuBenchCases() []cpuBenchCase {
	return []cpuBenchCase{
		{
			name:  "mergesort",
			sizes: []int{1 << 16, 1 << 18, 1 << 20},
			build: func(d []int32) (hybriddc.Alg, error) { return hybriddc.NewMergesort(d) },
			value: func(a hybriddc.Alg) any {
				return append([]int32(nil), a.(interface{ Result() []int32 }).Result()...)
			},
		},
		{
			name:  "dcsum",
			sizes: []int{1 << 16, 1 << 18, 1 << 20},
			build: func(d []int32) (hybriddc.Alg, error) { return hybriddc.NewSum(d) },
			value: func(a hybriddc.Alg) any { return a.(interface{ Result() int64 }).Result() },
		},
		{
			name:  "scan",
			sizes: []int{1 << 16, 1 << 18, 1 << 20},
			build: func(d []int32) (hybriddc.Alg, error) { return hybriddc.NewScan(d) },
			value: func(a hybriddc.Alg) any {
				return append([]int64(nil), a.(interface{ Result() []int64 }).Result()...)
			},
		},
	}
}

// runCPUBench measures the breadth-first CPU path on the work-stealing
// engine, without and with automatic leaf coarsening: end-to-end makespans
// for mergesort/dcsum/scan at three sizes, every run verified bit-identical
// against the sequential baseline. The best of `reps` wall-clock
// repetitions is kept per configuration (standard noise rejection). Rows go
// to out as JSON plus delta lines on stdout and, when summary is nonempty,
// a markdown table for the CI job summary. It fails (nonzero exit) when any
// result differs.
func runCPUBench(out, summary string, workers, reps int) error {
	modes := []struct {
		name string
		opts []hybriddc.Option
	}{
		{"engine", nil},
		{"engine+grain", []hybriddc.Option{hybriddc.WithGrain(hybriddc.GrainAuto)}},
	}

	var rows []cpuBenchRow
	for _, tc := range cpuBenchCases() {
		for _, n := range tc.sizes {
			data := workload.Uniform(n, int64(2000*n+1))

			// Sequential baseline: the bit-identity reference.
			ref, err := tc.build(append([]int32(nil), data...))
			if err != nil {
				return err
			}
			if _, err := hybriddc.RunSequentialCtx(context.Background(), hybriddc.MustSim(hybriddc.HPU1()), ref); err != nil {
				return err
			}
			want := tc.value(ref)

			secs := make([]float64, len(modes))
			identical := true
			for mi, m := range modes {
				be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: workers})
				if err != nil {
					return err
				}
				best := 0.0
				for r := 0; r < reps; r++ {
					alg, err := tc.build(append([]int32(nil), data...))
					if err != nil {
						be.Close()
						return err
					}
					start := time.Now()
					if _, err := hybriddc.RunBreadthFirstCPUCtx(context.Background(), be, alg, m.opts...); err != nil {
						be.Close()
						return fmt.Errorf("bench-cpu %s n=%d %s: %w", tc.name, n, m.name, err)
					}
					elapsed := time.Since(start).Seconds()
					if best == 0 || elapsed < best {
						best = elapsed
					}
					if !reflect.DeepEqual(tc.value(alg), want) {
						identical = false
					}
				}
				if err := be.Close(); err != nil {
					return err
				}
				secs[mi] = best
			}

			row := cpuBenchRow{
				Alg: tc.name, Size: n,
				EngineSeconds:   secs[0],
				GrainSeconds:    secs[1],
				EngineNsPerElem: secs[0] * 1e9 / float64(n),
				GrainNsPerElem:  secs[1] * 1e9 / float64(n),
				GrainSpeedup:    secs[0] / secs[1],
				Identical:       identical,
			}
			rows = append(rows, row)
			fmt.Printf("%-10s n=%-8d engine %9.3fms  engine+grain %9.3fms (%+.1f%%)\n",
				tc.name, n, 1e3*secs[0], 1e3*secs[1], 100*(secs[1]-secs[0])/secs[0])

			if !identical {
				return fmt.Errorf("bench-cpu %s n=%d: results differ from sequential baseline", tc.name, n)
			}
		}
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"workers":    workers,
		"end_to_end": rows,
	}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)

	if summary != "" {
		if err := writeCPUBenchSummary(summary, workers, rows); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", summary)
	}
	return nil
}

// writeCPUBenchSummary renders the rows as a markdown table suitable for
// appending to $GITHUB_STEP_SUMMARY.
func writeCPUBenchSummary(path string, workers int, rows []cpuBenchRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "### CPU breadth-first executor, end to end (%d workers, best of reps)\n\n", workers)
	fmt.Fprintln(f, "| alg | n | engine | engine+grain | Δ |")
	fmt.Fprintln(f, "|---|---:|---:|---:|---:|")
	for _, r := range rows {
		fmt.Fprintf(f, "| %s | %d | %.3fms | %.3fms | %+.1f%% |\n",
			r.Alg, r.Size, 1e3*r.EngineSeconds,
			1e3*r.GrainSeconds, 100*(r.GrainSeconds-r.EngineSeconds)/r.EngineSeconds)
	}
	return nil
}
