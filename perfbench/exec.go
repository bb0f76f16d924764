package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	hybriddc "repro"
)

// newAlg builds a fresh instance of a job's algorithm over its input.
func newAlg(j job) (hybriddc.GPUAlg, error) {
	switch j.Alg {
	case "mergesort":
		return hybriddc.NewMergesort(j.in.data)
	case "scan":
		return hybriddc.NewScan(j.in.data)
	case "sum":
		return hybriddc.NewSum(j.in.data)
	}
	return nil, fmt.Errorf("unknown algorithm %q", j.Alg)
}

// outputOf reads a settled instance's result.
func outputOf(alg hybriddc.Alg) output {
	switch a := alg.(type) {
	case interface{ Result() []int32 }:
		return output{sorted: a.Result()}
	case interface{ Result() []int64 }:
		return output{scan: a.Result()}
	case interface{ Result() int64 }:
		v := a.Result()
		return output{sum: &v}
	}
	return output{}
}

// release hands an instance's pooled buffers back, as a caller that owns
// the instance does once it has read the result.
func release(alg hybriddc.Alg) {
	if r, ok := alg.(interface{ Release() }); ok {
		r.Release()
	}
}

// plan holds the static parameters of the fixed hybrid strategies for one
// (algorithm, size): the §5.1 crossover and the §5.2 (α, y), both from the
// paper's model of HPU1.
type plan struct {
	crossover int
	alpha     float64
	y         int
}

type planKey struct {
	alg  string
	logN int
}

var (
	plansMu sync.Mutex
	plans   = map[planKey]plan{}
)

func planFor(j job) (plan, error) {
	k := planKey{j.Alg, j.LogN}
	plansMu.Lock()
	defer plansMu.Unlock()
	if p, ok := plans[k]; ok {
		return p, nil
	}
	alg, err := newAlg(j)
	if err != nil {
		return plan{}, err
	}
	defer release(alg)
	sim, err := hybriddc.NewSim(hybriddc.HPU1())
	if err != nil {
		return plan{}, err
	}
	var p plan
	p.alpha, p.y = hybriddc.PlanAdvanced(sim, alg)
	p.crossover = alg.Levels()
	if x, ok := hybriddc.BasicCrossover(alg.Arity(), hybriddc.MachineOf(sim)); ok && x < p.crossover {
		p.crossover = x
	}
	plans[k] = p
	return p, nil
}

var strategies = map[string]hybriddc.JobStrategy{
	stratBF:       hybriddc.JobBreadthFirstCPU,
	stratGPU:      hybriddc.JobGPUOnly,
	stratBasic:    hybriddc.JobBasicHybrid,
	stratAdvanced: hybriddc.JobAdvancedHybrid,
	stratAuto:     hybriddc.JobAuto,
}

// jobSpec is the serve.Job for j running the given strategy.
func jobSpec(j job, strategy string, alg hybriddc.Alg) (hybriddc.JobSpec, error) {
	st, ok := strategies[strategy]
	if !ok {
		return hybriddc.JobSpec{}, fmt.Errorf("unknown strategy %q", strategy)
	}
	p, err := planFor(j)
	if err != nil {
		return hybriddc.JobSpec{}, err
	}
	spec := hybriddc.JobSpec{Alg: alg, Strategy: st}
	switch strategy {
	case stratBasic:
		spec.Crossover = p.crossover
	case stratAdvanced:
		spec.Alpha, spec.Y = p.alpha, p.y
	}
	return spec, nil
}

// execute calls the executor for a fixed strategy directly.
func execute(ctx context.Context, be hybriddc.Backend, j job, strategy string, alg hybriddc.GPUAlg, opts ...hybriddc.Option) (hybriddc.Report, error) {
	p, err := planFor(j)
	if err != nil {
		return hybriddc.Report{}, err
	}
	switch strategy {
	case stratBF:
		return hybriddc.RunBreadthFirstCPUCtx(ctx, be, alg, opts...)
	case stratGPU:
		return hybriddc.RunGPUOnlyCtx(ctx, be, alg, opts...)
	case stratBasic:
		return hybriddc.RunBasicHybridCtx(ctx, be, alg, p.crossover, opts...)
	case stratAdvanced:
		return hybriddc.RunAdvancedHybridCtx(ctx, be, alg, p.alpha, p.y, opts...)
	}
	return hybriddc.Report{}, fmt.Errorf("no executor for strategy %q", strategy)
}

// replayTimes are one layered replay's per-class samples, wall seconds.
type replayTimes struct {
	submit, settle, exec map[string][]float64
}

// layeredReplay runs each job reps times through srv.Submit (timing the
// call and the settle) and reps times through its executor directly on be,
// verifying every output. Jobs must use fixed strategies.
func layeredReplay(o options, srv *hybriddc.Server, be hybriddc.Backend, jobs []job, reps int, tr *tracer) (replayTimes, error) {
	rt := replayTimes{submit: map[string][]float64{}, settle: map[string][]float64{}, exec: map[string][]float64{}}
	ctx := context.Background()
	check := func(j job, alg hybriddc.Alg) error {
		defer release(alg)
		return o.check(j, outputOf(alg))
	}
	for _, j := range jobs {
		for r := 0; r < reps; r++ {
			alg, err := newAlg(j)
			if err != nil {
				return rt, err
			}
			spec, err := jobSpec(j, j.Strategy, alg)
			if err != nil {
				return rt, err
			}
			t0 := time.Now()
			h, err := srv.Submit(ctx, spec)
			t1 := time.Now()
			if err != nil {
				return rt, fmt.Errorf("replay job %d: %w", j.Index, err)
			}
			_, err = h.Wait(ctx)
			t2 := time.Now()
			if err != nil {
				return rt, fmt.Errorf("replay job %d: %w", j.Index, err)
			}
			root := tr.add("replay.serve.settle", 0, j, t0, t2)
			tr.add("replay.serve.Submit", root, j, t0, t1)
			rt.submit[j.class()] = append(rt.submit[j.class()], t1.Sub(t0).Seconds())
			rt.settle[j.class()] = append(rt.settle[j.class()], t2.Sub(t0).Seconds())
			if err := check(j, alg); err != nil {
				return rt, err
			}

			if alg, err = newAlg(j); err != nil {
				return rt, err
			}
			t0 = time.Now()
			_, err = execute(ctx, be, j, j.Strategy, alg)
			t1 = time.Now()
			if err != nil {
				return rt, fmt.Errorf("replay job %d executor: %w", j.Index, err)
			}
			tr.add("replay.core."+j.Strategy, 0, j, t0, t1)
			rt.exec[j.class()] = append(rt.exec[j.class()], t1.Sub(t0).Seconds())
			if err := check(j, alg); err != nil {
				return rt, err
			}
		}
	}
	return rt, nil
}

// selfTime is the median over classes of (outer median - inner median):
// the time a layer adds on top of the layer below it.
func selfTime(outer, inner map[string]float64) float64 {
	var diffs []float64
	for c, o := range outer {
		if i, ok := inner[c]; ok {
			diffs = append(diffs, o-i)
		}
	}
	return median(diffs)
}

// firstPerClass keeps the first job of each class with a fixed strategy.
func firstPerClass(jobs []job) []job {
	seen := map[string]bool{}
	var out []job
	for _, j := range jobs {
		if j.Strategy == stratAuto || seen[j.class()] {
			continue
		}
		seen[j.class()] = true
		out = append(out, j)
	}
	return out
}
