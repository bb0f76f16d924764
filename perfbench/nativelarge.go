package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	hybriddc "repro"
)

// nativeLarge is the library path: one caller invoking the executors
// directly on the native backend, with no server and no wire.
type nativeLarge struct {
	o    options
	jobs []job // one round; measure replays it in a fresh seeded order per round
	be   *hybriddc.Native
	reg  *hybriddc.Metrics
	runs []nativeRun // the last traced window's
	// before and after bracket the last traced window.
	before, after hybriddc.MetricsSnapshot
}

type nativeRun struct {
	j   job
	rep hybriddc.Report
}

func (n *nativeLarge) setup() error {
	n.reg = hybriddc.NewMetrics()
	be, err := hybriddc.NewNative(hybriddc.NativeConfig{
		CPUWorkers: runtime.GOMAXPROCS(0), DeviceLanes: 64, Metrics: n.reg})
	if err != nil {
		return err
	}
	n.be = be
	// Warm-up: one bf-cpu job per algorithm and size fills the buffer
	// pool classes the timed jobs use.
	seen := map[planKey]bool{}
	for _, j := range n.jobs {
		k := planKey{j.Alg, j.LogN}
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, err := planFor(j); err != nil {
			return err
		}
		if _, err := n.call(j, stratBF, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// call runs one job through its executor and verifies the output.
func (n *nativeLarge) call(j job, strategy string, tr *tracer, opts []hybriddc.Option) (hybriddc.Report, error) {
	alg, err := newAlg(j)
	if err != nil {
		return hybriddc.Report{}, err
	}
	defer release(alg)
	if strategy == stratBF {
		opts = append(opts, hybriddc.WithGrain(hybriddc.GrainAuto))
	}
	t0 := time.Now()
	rep, err := execute(context.Background(), n.be, j, strategy, alg, opts...)
	t1 := time.Now()
	if err != nil {
		return rep, err
	}
	tr.add("core."+strategy, 0, j, t0, t1)
	return rep, n.o.check(j, outputOf(alg))
}

// nominalRound is about how long one native-large round takes on a 2-core
// box. A window runs d/nominalRound whole rounds (at least one), so every
// window of a given length holds the same mix and the same number of
// samples, and its latency percentiles fall on the same jobs.
const nominalRound = 3400 * time.Millisecond

// measure runs whole rounds, each in a fresh seeded order.
func (n *nativeLarge) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	n.runs = nil
	var opts []hybriddc.Option
	if tr != nil {
		opts = append(opts, hybriddc.WithMetrics(n.reg))
		n.before = n.reg.Snapshot()
		defer func() { n.after = n.reg.Snapshot() }()
	}
	rng := rand.New(rand.NewSource(n.o.seed ^ 0x6e61))
	var p part
	start := time.Now()
	rounds := max(1, int(math.Round(float64(d)/float64(nominalRound))))
	for r := 0; r < rounds; r++ {
		order := rng.Perm(len(n.jobs))
		for _, i := range order {
			j := n.jobs[i]
			w.attempted++
			t0 := time.Now()
			rep, err := n.call(j, j.Strategy, tr, opts)
			if err != nil {
				var bad *mismatch
				if errors.As(err, &bad) {
					return w, err
				}
				w.failed++
				continue
			}
			p.verified++
			p.elements += int64(j.n())
			p.latencies = append(p.latencies, time.Since(t0).Seconds())
			if tr != nil {
				n.runs = append(n.runs, nativeRun{j, rep})
			}
		}
	}
	p.elapsed = time.Since(start).Seconds()
	w.verified = p.verified
	w.add(p)
	return w, nil
}

// makespans replays the round, 64 times smaller, as auto bursts on the
// simulated pool: what the modeled HPU would take for this mix.
func (n *nativeLarge) makespans() ([]float64, error) {
	return replayMakespans(n.o, n.jobs, 15, 6)
}

func (n *nativeLarge) layers(tr *tracer, w *window, lm map[string]float64) error {
	jobs := float64(w.attempted)
	delta := func(names ...string) float64 { return counterDelta(n.before, n.after, names...) }
	lm["core.transfer_bytes_per_job"] = ratio(delta("core_transfer_to_gpu_bytes", "core_transfer_to_cpu_bytes"), jobs)
	lm["native.steals_per_job"] = ratio(delta("native_cpu_steals_total", "native_gpu_steals_total"), jobs)
	lm["native.tasks_per_job"] = ratio(delta("native_cpu_tasks_total", "native_gpu_tasks_total"), jobs)

	// core.run_s at 2^21 (lowered with the sizes in self-tests), from the
	// traced window's own calls.
	probeLog := max(4, 21-n.o.shrink)
	byClass := tr.byClass("core." + stratBF)
	for _, st := range []string{stratGPU, stratAdvanced} {
		for k, v := range tr.byClass("core." + st) {
			byClass[k] = v
		}
	}
	best := map[string]float64{}
	for _, a := range algNames {
		best[a] = math.Inf(1)
		for _, st := range []string{stratBF, stratGPU, stratAdvanced} {
			cls := job{Alg: a, LogN: probeLog, Strategy: st}.class()
			v := median(byClass[cls])
			lm[fmt.Sprintf("core.run_s.%s.%s", a, st)] = v
			if v > 0 {
				best[a] = math.Min(best[a], v)
			}
		}
	}
	var idle []float64
	for _, r := range n.runs {
		if r.j.Strategy == stratAdvanced {
			idle = append(idle, ratio(math.Abs(r.rep.CPUPortionSeconds-r.rep.GPUPortionSeconds), r.rep.Seconds))
		}
	}
	lm["core.hybrid_idle_share.native"] = mean(idle)

	// Single-thread baseline: RunSequentialCtx at the probe size.
	for _, a := range algNames {
		var inp *input
		for _, j := range n.jobs {
			if j.LogN == probeLog {
				inp = j.in
				break
			}
		}
		j := job{Index: -1, Alg: a, LogN: probeLog, Strategy: "seq-1cpu", in: inp}
		var secs []float64
		for r := 0; r < 3; r++ {
			alg, err := newAlg(j)
			if err != nil {
				return err
			}
			t0 := time.Now()
			_, err = hybriddc.RunSequentialCtx(context.Background(), n.be, alg)
			t1 := time.Now()
			if err == nil {
				err = n.o.check(j, outputOf(alg))
			}
			release(alg)
			if err != nil {
				return err
			}
			tr.add("core.seq", 0, j, t0, t1)
			secs = append(secs, t1.Sub(t0).Seconds())
		}
		lm["native.seq_s."+a] = median(secs)
		lm["native.speedup."+a] = ratio(median(secs), best[a])
	}
	return nil
}

func (n *nativeLarge) close() error {
	if n.be == nil {
		return nil
	}
	return n.be.Close()
}
