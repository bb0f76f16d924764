package main

import (
	"fmt"
	"strings"
)

// metricDef describes one reported metric. Every metric says its unit and
// time base; a layer metric also names the end-to-end metric (and workload)
// it should move.
type metricDef struct {
	Name   string
	Unit   string
	Base   string // "wall", "virtual" or "none"
	Better string // "higher" or "lower"
	Moves  string // layer metrics: what it should move
	About  string
}

// workloads lists the benchmark's workloads and why each exists.
var workloads = []struct{ Name, Why string }{
	{"api-small", "remote serving over loopback TCP: small jobs, so wire codec, admission, dispatch and small pool classes dominate"},
	{"native-large", "library calls into the executors at 2^19-2^22: leaf kernels, the work-stealing pool and large pool classes dominate"},
	{"sim-burst", "deep queue on 4 simulated HPU1 devices: admission, placement, fusion and auto decisions set the virtual makespan"},
}

// endToEnd are the metrics a user of the system sees, printed with tracing
// off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "wall", "lower", "", "median over the run's set-ups of the time from set-up start (process start for the first) to the first timed job"},
	{"jobs_per_s", "1/s", "wall", "higher", "", "verified jobs per wall second of the timed window"},
	{"elements_per_s", "1/s", "wall", "higher", "", "input elements of verified jobs per wall second"},
	{"latency_p50_s", "s", "wall", "lower", "", "median wall time from a job's submission call to its verified result"},
	{"latency_tail_s", "s", "wall", "lower", "", "job latency at the highest percentile with at least 10 samples beyond it"},
	{"makespan_vs", "virtual_s", "virtual", "lower", "", "virtual time from first submit to last settle on the slowest of 4 simulated HPU1 devices serving a burst of the workload's jobs (median over bursts)"},
	{"ok_share", "share", "none", "higher", "", "1 - failed_share: verified jobs over attempted; failed, rejected and canceled jobs count against it"},
	{"max_rss_bytes", "bytes", "none", "lower", "", "peak resident set of the benchmark process"},
}

// layerDefs expands the per-layer metric catalog.
func layerDefs() []metricDef {
	var out []metricDef
	add := func(name, unit, base, better, moves, about string) {
		out = append(out, metricDef{name, unit, base, better, moves, about})
	}
	apiMoves := "latency_p50_s, latency_tail_s, jobs_per_s on api-small; nothing on native-large"
	add("api.submit_s.p50", "s", "wall", "lower", apiMoves, "Client.Submit call")
	add("api.submit_s.p99", "s", "wall", "lower", apiMoves, "Client.Submit call")
	add("api.wait_s.p50", "s", "wall", "lower", apiMoves, "client Handle.Wait call")
	add("api.self_s.p50", "s", "wall", "lower", apiMoves, "median over job classes of client latency minus in-process serve settle time")
	add("api.binary.latency_p50_s", "s", "wall", "lower", apiMoves, "latency of binary-wire jobs")
	add("api.json.latency_p50_s", "s", "wall", "lower", apiMoves, "latency of JSON-wire jobs")
	add("api.bytes_per_job", "bytes", "none", "lower", apiMoves, "api_bytes_in_total + api_bytes_out_total per job")

	serveMoves := "makespan_vs, jobs_per_s on sim-burst; latency_p50_s on api-small; ok_share everywhere"
	add("serve.submit_s.p50", "s", "wall", "lower", serveMoves, "Server.Submit call")
	add("serve.settle_s.p50", "s", "wall", "lower", serveMoves, "Server.Submit call to Done")
	add("serve.settle_s.p99", "s", "wall", "lower", serveMoves, "Server.Submit call to Done")
	add("serve.self_s.p50", "s", "wall", "lower", serveMoves, "median over job classes of settle time minus the direct executor call")
	add("serve.queue_wait_s", "s", "wall", "lower", serveMoves, "Stats.AvgQueueWaitSeconds")
	add("serve.fusion_ratio", "share", "none", "higher", serveMoves, "fused jobs over finished jobs")
	add("serve.placement_skew", "ratio", "none", "lower", serveMoves, "max/mean placements per device")
	add("serve.device_clock_skew", "ratio", "virtual", "lower", serveMoves, "max/mean final virtual clock per device")
	add("serve.rejected", "count", "none", "lower", serveMoves, "Stats.Rejected")
	add("serve.retries", "count", "none", "lower", serveMoves, "Stats.Retries")

	autoMoves := "makespan_vs on sim-burst"
	add("autotune.regret", "ratio", "virtual", "lower", autoMoves, "sum of auto Report.Seconds over sum of the best fixed strategy's, each auto input replayed on a fresh HPU1 sim")
	add("autotune.mispick_share", "share", "none", "lower", autoMoves, "auto jobs whose pick was not the best fixed strategy")
	for _, s := range fixedStrategies {
		add("autotune.picks."+s, "share", "none", "higher", autoMoves, "share of auto jobs that ran "+s)
	}

	coreMoves := "elements_per_s on native-large; makespan_vs on sim-burst"
	for _, a := range algNames {
		for _, s := range []string{stratBF, stratGPU, stratAdvanced} {
			add(fmt.Sprintf("core.run_s.%s.%s", a, s), "s", "wall", "lower", "elements_per_s on native-large",
				"median executor call on the native backend at 2^21")
		}
	}
	for _, a := range algNames {
		for _, s := range fixedStrategies {
			add(fmt.Sprintf("core.run_vs.%s.%s", a, s), "virtual_s", "virtual", "lower", "makespan_vs on sim-burst",
				"Report.Seconds on a fresh HPU1 sim at 2^16")
		}
	}
	add("core.hybrid_idle_share.native", "share", "wall", "lower", "elements_per_s on native-large",
		"mean |CPUPortion-GPUPortion|/Seconds of advanced-hybrid runs")
	add("core.hybrid_idle_share.sim", "share", "virtual", "lower", "makespan_vs on sim-burst",
		"mean |CPUPortion-GPUPortion|/Seconds of advanced-hybrid runs at 2^16")
	add("core.transfer_bytes_per_job", "bytes", "none", "lower", coreMoves, "host-device bytes per job")

	nativeMoves := "elements_per_s on native-large"
	for _, a := range algNames {
		add("native.seq_s."+a, "s", "wall", "lower", nativeMoves, "median RunSequentialCtx at 2^21")
	}
	for _, a := range algNames {
		add("native.speedup."+a, "ratio", "wall", "higher", nativeMoves, "native.seq_s over the best core.run_s")
	}
	add("native.steals_per_job", "count", "none", "lower", nativeMoves, "work-stealing steals per job")
	add("native.tasks_per_job", "count", "none", "lower", nativeMoves, "pool tasks per job")

	simMoves := "jobs_per_s (host) and makespan_vs on sim-burst"
	add("sim.host_s_per_job", "s", "wall", "lower", simMoves, "host wall time per burst job")
	add("sim.host_s_per_vs", "s/virtual_s", "wall", "lower", simMoves, "host wall time per device virtual second")
	add("sim.launches_per_job", "count", "none", "lower", simMoves, "simulated kernel launches per job")
	add("sim.coalesced_share", "share", "none", "higher", simMoves, "coalesced share of simulated device words")

	memMoves := "jobs_per_s and latency_tail_s on api-small; max_rss_bytes everywhere"
	add("mempool.hit_ratio", "share", "none", "higher", memMoves, "buffer pool hits over gets")
	add("mempool.retained_bytes", "bytes", "none", "lower", memMoves, "bytes parked in the buffer pools after the run")
	add("go.allocs_per_job", "count", "none", "lower", memMoves, "runtime.MemStats.Mallocs per job")
	add("go.alloc_bytes_per_job", "bytes", "none", "lower", memMoves, "runtime.MemStats.TotalAlloc per job")
	add("go.gc_pause_s", "s", "wall", "lower", memMoves, "total GC pause in the traced window")
	add("go.heap_inuse_bytes", "bytes", "none", "lower", memMoves, "runtime.MemStats.HeapInuse after the traced window")

	add("trace.overhead", "ratio", "wall", "higher", "none; must stay near 1", "traced over untraced jobs_per_s on this workload")
	return out
}

// describe renders the catalog for --describe.
func describe() string {
	var b strings.Builder
	for _, w := range workloads {
		fmt.Fprintf(&b, "workload %-12s %s\n", w.Name, w.Why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "end_to_end %-16s [%s, %s time, %s is better] %s\n", m.Name, m.Unit, m.Base, m.Better, m.About)
	}
	for _, m := range layerDefs() {
		fmt.Fprintf(&b, "per_layer %-38s [%s, %s time, %s is better] %s; should move: %s\n",
			m.Name, m.Unit, m.Base, m.Better, m.About, m.Moves)
	}
	return b.String()
}
