package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"time"

	hybriddc "repro"
)

// poolDevices is the simulated pool size every burst runs on.
const poolDevices = 4

// burst is one burst's outcome on a fresh pool of simulated HPU1 devices.
type burst struct {
	makespan   float64   // slowest device's final virtual clock
	clocks     []float64 // each device's final virtual clock
	placements []uint64
	stats      hybriddc.ServerStats
	attempted  int
	failed     int
	reports    map[int]hybriddc.Report // by job index
	part                               // verified jobs; elapsed is wall
}

// runBurst submits every job from one goroutine to a fresh pool of
// poolDevices HPU1 sims (fusion up to 16 jobs, the given auto tuner), then
// waits for all of them and verifies each output. strategy, if set,
// replaces every job's own. reg, if set, receives the server's and the
// devices' metrics.
func runBurst(o options, jobs []job, strategy string, tuner *hybriddc.AutoTuner, reg *hybriddc.Metrics, tr *tracer) (*burst, error) {
	sims := make([]*hybriddc.Sim, poolDevices)
	pool := make([]hybriddc.Backend, poolDevices)
	for i := range sims {
		s, err := hybriddc.NewSim(hybriddc.HPU1())
		if err != nil {
			return nil, err
		}
		if reg != nil {
			s.SetMetrics(reg)
		}
		sims[i], pool[i] = s, s
	}
	opts := []hybriddc.ServerOption{
		hybriddc.WithQueueDepth(len(jobs) + 8),
		hybriddc.WithMaxFusedJobs(16),
		hybriddc.WithAutoTuner(tuner),
	}
	if reg != nil {
		opts = append(opts, hybriddc.WithServerMetrics(reg))
	}
	srv, err := hybriddc.NewServerPool(pool, opts...)
	if err != nil {
		return nil, err
	}
	b := &burst{reports: map[int]hybriddc.Report{}}
	ctx := context.Background()

	type pending struct {
		j   job
		alg hybriddc.GPUAlg
		h   *hybriddc.JobHandle
		t0  time.Time
	}
	var live []pending
	start := time.Now()
	for _, j := range jobs {
		if strategy != "" {
			j.Strategy = strategy
		}
		b.attempted++
		alg, err := newAlg(j)
		if err != nil {
			srv.Close()
			return nil, err
		}
		spec, err := jobSpec(j, j.Strategy, alg)
		if err != nil {
			srv.Close()
			return nil, err
		}
		t0 := time.Now()
		h, err := srv.Submit(ctx, spec)
		t1 := time.Now()
		if err != nil {
			b.failed++
			release(alg)
			continue
		}
		tr.add("serve.Submit", 0, j, t0, t1)
		live = append(live, pending{j: j, alg: alg, h: h, t0: t0})
	}

	// One goroutine waits on every handle at once, so each job's latency
	// ends when it settles, not when the jobs before it do.
	var firstErr error
	cases := make([]reflect.SelectCase, 0, len(live))
	for len(live) > 0 {
		cases = cases[:0]
		for _, p := range live {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.h.Done())})
		}
		i, _, _ := reflect.Select(cases)
		p := live[i]
		live = append(live[:i], live[i+1:]...)
		rep, err := p.h.Wait(ctx)
		if err != nil {
			b.failed++
			release(p.alg)
			continue
		}
		if err := o.check(p.j, outputOf(p.h.ResultAlg())); err != nil && firstErr == nil {
			firstErr = err
		}
		release(p.alg)
		t := time.Now()
		tr.add("serve.settle", 0, p.j, p.t0, t)
		b.verified++
		b.elements += int64(p.j.n())
		b.latencies = append(b.latencies, t.Sub(p.t0).Seconds())
		b.reports[p.j.Index] = rep
	}
	b.elapsed = time.Since(start).Seconds()
	b.stats = srv.Stats()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	for i, s := range sims {
		b.clocks = append(b.clocks, s.Now())
		b.makespan = math.Max(b.makespan, s.Now())
		b.placements = append(b.placements, b.stats.Devices[i].Placements)
	}
	return b, firstErr
}

func (b *burst) note(k int) string {
	return fmt.Sprintf("# burst %d: makespan %.6g virtual s, device clocks %s, placements %v, fused runs %d (%d jobs), wall %.3gs",
		k, b.makespan, fmtFloats(b.clocks), b.placements, b.stats.FusedRuns, b.stats.FusedJobs, b.elapsed)
}

// skew is max/mean of xs (0 when empty or all zero).
func skew(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = math.Max(hi, x)
	}
	return ratio(hi, sum/float64(len(xs)))
}

// simBurst is the scheduling path on the paper's modeled hardware.
type simBurst struct {
	o      options
	jobs   []job
	tuner  *hybriddc.AutoTuner
	bursts []*burst // the last window's
	reg    *hybriddc.Metrics
	rng    *rand.Rand // burst orders
}

// order returns the burst's jobs in the next seeded order. Each burst of
// a run is submitted in its own order, so a run's medians average over
// orders instead of hanging on one. Each class appears equally often in
// both halves of a burst (every sim-burst class has an even count), so
// when half the burst has settled does not hang on where the few largest
// jobs fell.
func (s *simBurst) order() []job {
	var halves [2][]job
	seen := map[string]int{}
	for _, j := range s.jobs {
		halves[seen[j.class()]%2] = append(halves[seen[j.class()]%2], j)
		seen[j.class()]++
	}
	for _, h := range halves {
		s.rng.Shuffle(len(h), func(a, b int) { h[a], h[b] = h[b], h[a] })
	}
	return append(halves[0], halves[1]...)
}

// setup calibrates the auto tuner with one warm-up burst.
func (s *simBurst) setup() error {
	s.rng = rand.New(rand.NewSource(s.o.seed ^ 0x6275727374))
	s.tuner = hybriddc.NewAutoTuner()
	_, err := runBurst(s.o, s.jobs, "", s.tuner, nil, nil)
	return err
}

func (s *simBurst) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	s.bursts = nil
	s.reg = nil
	if tr != nil {
		s.reg = hybriddc.NewMetrics()
	}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		b, err := runBurst(s.o, s.order(), "", s.tuner, s.reg, tr)
		if b != nil {
			s.bursts = append(s.bursts, b)
			w.attempted += b.attempted
			w.failed += b.failed
			w.add(b.part)
			w.verified += b.verified
			w.notes = append(w.notes, b.note(k))
		}
		if err != nil {
			return w, err
		}
	}
	return w, nil
}

func (s *simBurst) makespans() ([]float64, error) {
	var out []float64
	for _, b := range s.bursts {
		out = append(out, b.makespan)
	}
	return out, nil
}

func (s *simBurst) layers(tr *tracer, w *window, lm map[string]float64) error {
	lm["serve.submit_s.p50"] = median(tr.durations("serve.Submit"))
	settle := tr.durations("serve.settle")
	lm["serve.settle_s.p50"] = median(settle)
	lm["serve.settle_s.p99"] = quantile(settle, 0.99)

	var waits, placeSkew, clockSkew, wall, clockSum []float64
	var fused, finished, rejected, retries float64
	picks := map[string]float64{}
	autoJobs := 0.0
	for _, b := range s.bursts {
		st := b.stats
		waits = append(waits, st.AvgQueueWaitSeconds)
		fused += float64(st.FusedJobs)
		finished += float64(st.Completed + st.Failed + st.Canceled)
		rejected += float64(st.Rejected)
		retries += float64(st.Retries)
		pl := make([]float64, len(b.placements))
		for i, p := range b.placements {
			pl[i] = float64(p)
		}
		placeSkew = append(placeSkew, skew(pl))
		clockSkew = append(clockSkew, skew(b.clocks))
		wall = append(wall, b.elapsed)
		sum := 0.0
		for _, c := range b.clocks {
			sum += c
		}
		clockSum = append(clockSum, sum)
		for _, rep := range b.reports {
			if rep.AutoStrategy != "" {
				picks[rep.AutoStrategy]++
				autoJobs++
			}
		}
	}
	lm["serve.queue_wait_s"] = median(waits)
	lm["serve.fusion_ratio"] = ratio(fused, finished)
	lm["serve.placement_skew"] = median(placeSkew)
	lm["serve.device_clock_skew"] = median(clockSkew)
	lm["serve.rejected"] = rejected
	lm["serve.retries"] = retries
	for _, st := range fixedStrategies {
		lm["autotune.picks."+st] = ratio(picks[st], autoJobs)
	}

	snap := s.reg.Snapshot()
	jobs := float64(w.attempted)
	lm["core.transfer_bytes_per_job"] = ratio(float64(snap.Counters["core_transfer_to_gpu_bytes"]+snap.Counters["core_transfer_to_cpu_bytes"]), jobs)
	lm["sim.host_s_per_job"] = ratio(sumOf(wall), jobs)
	lm["sim.host_s_per_vs"] = ratio(sumOf(wall), sumOf(clockSum))
	lm["sim.launches_per_job"] = ratio(float64(snap.Counters["simgpu_launches_total"]), jobs)
	co, un := float64(snap.Counters["simgpu_coalesced_words_total"]), float64(snap.Counters["simgpu_uncoalesced_words_total"])
	lm["sim.coalesced_share"] = ratio(co, co+un)

	if err := s.autotuneRegret(lm); err != nil {
		return err
	}
	if err := simProbes(s.o, lm); err != nil {
		return err
	}
	// Layered replay on one sim: each fixed-strategy class through
	// Server.Submit and through its executor.
	sim, err := hybriddc.NewSim(hybriddc.HPU1())
	if err != nil {
		return err
	}
	srv, err := hybriddc.NewServer(sim)
	if err != nil {
		return err
	}
	direct, err := hybriddc.NewSim(hybriddc.HPU1())
	if err != nil {
		srv.Close()
		return err
	}
	rt, err := layeredReplay(s.o, srv, direct, firstPerClass(s.jobs), 3, tr)
	srv.Close()
	if err != nil {
		return err
	}
	lm["serve.self_s.p50"] = selfTime(classMedians(rt.settle), classMedians(rt.exec))
	return nil
}

// autotuneRegret replays every auto job of the first traced burst through
// each fixed strategy on a fresh HPU1 sim, in deterministic virtual time.
func (s *simBurst) autotuneRegret(lm map[string]float64) error {
	if len(s.bursts) == 0 {
		return nil
	}
	b := s.bursts[0]
	var autoSum, bestSum, mispicks, n float64
	for _, j := range s.jobs {
		rep, ok := b.reports[j.Index]
		if !ok || j.Strategy != stratAuto {
			continue
		}
		best, bestName := math.Inf(1), ""
		for _, st := range fixedStrategies {
			sim, err := hybriddc.NewSim(hybriddc.HPU1())
			if err != nil {
				return err
			}
			alg, err := newAlg(j)
			if err != nil {
				return err
			}
			r, err := execute(context.Background(), sim, j, st, alg)
			if err == nil {
				err = s.o.check(j, outputOf(alg))
			}
			release(alg)
			if err != nil {
				return err
			}
			if r.Seconds < best {
				best, bestName = r.Seconds, st
			}
		}
		autoSum += rep.Seconds
		bestSum += best
		n++
		if rep.AutoStrategy != bestName {
			mispicks++
		}
	}
	lm["autotune.regret"] = ratio(autoSum, bestSum)
	lm["autotune.mispick_share"] = ratio(mispicks, n)
	return nil
}

// simProbes runs each algorithm under every fixed strategy at 2^16 on a
// fresh HPU1 sim: deterministic virtual seconds per executor.
func simProbes(o options, lm map[string]float64) error {
	var idle []float64
	for _, a := range algNames {
		rng := newProbeRNG(o.seed)
		j := job{Index: -1, Alg: a, LogN: max(4, 16-o.shrink), in: newInput(1<<max(4, 16-o.shrink), rng)}
		for _, st := range fixedStrategies {
			j.Strategy = st
			sim, err := hybriddc.NewSim(hybriddc.HPU1())
			if err != nil {
				return err
			}
			alg, err := newAlg(j)
			if err != nil {
				return err
			}
			rep, err := execute(context.Background(), sim, j, st, alg)
			if err == nil {
				err = o.check(j, outputOf(alg))
			}
			release(alg)
			if err != nil {
				return err
			}
			lm[fmt.Sprintf("core.run_vs.%s.%s", a, st)] = rep.Seconds
			if st == stratAdvanced {
				idle = append(idle, ratio(math.Abs(rep.CPUPortionSeconds-rep.GPUPortionSeconds), rep.Seconds))
			}
		}
	}
	lm["core.hybrid_idle_share.sim"] = mean(idle)
	return nil
}

// replayMakespans serves jobs, all as auto jobs, as one burst on a fresh
// simulated pool with a fresh tuner, reps times, each time in another
// seeded order: the modeled HPU's makespan for the workload's mix. lower,
// if positive, first shrinks every input by 2^lower (fresh seeded data),
// to keep the simulator's host cost small.
func replayMakespans(o options, jobs []job, reps, lower int) ([]float64, error) {
	rng := rand.New(rand.NewSource(o.seed ^ 0x7265706c6179))
	if lower > 0 {
		inputs := map[int]*input{}
		jobs = slices.Clone(jobs)
		for i := range jobs {
			l := max(4, jobs[i].LogN-lower)
			if inputs[l] == nil {
				inputs[l] = newInput(1<<l, rng)
			}
			jobs[i].LogN, jobs[i].in = l, inputs[l]
		}
	}
	var out []float64
	for r := 0; r < reps; r++ {
		order := slices.Clone(jobs)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		b, err := runBurst(o, order, stratAuto, hybriddc.NewAutoTuner(), nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, b.makespan)
	}
	return out, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sumOf(xs), float64(len(xs))) }

func (s *simBurst) close() error { return nil }
