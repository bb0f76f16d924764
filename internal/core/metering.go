package core

import "repro/internal/metrics"

// Metric names recorded by the metrics hook set. They are package-level so
// exposition layers and tests can reference them without typos; semantics
// are documented in DESIGN.md §9.
const (
	MetricRuns            = "core_runs_total"
	MetricRunSeconds      = "core_run_seconds"
	MetricCPUBatchSeconds = "core_cpu_batch_seconds"
	MetricGPUBatchSeconds = "core_gpu_batch_seconds"
	MetricCPUBusySeconds  = "core_cpu_busy_seconds"
	MetricGPUBusySeconds  = "core_gpu_busy_seconds"
	MetricCPUIdleSeconds  = "core_cpu_idle_seconds"
	MetricGPUIdleSeconds  = "core_gpu_idle_seconds"
	MetricToGPUTransfers  = "core_transfer_to_gpu_total"
	MetricToCPUTransfers  = "core_transfer_to_cpu_total"
	MetricToGPUBytes      = "core_transfer_to_gpu_bytes"
	MetricToCPUBytes      = "core_transfer_to_cpu_bytes"
)

// runMeter is the metrics hook set: it accounts every batch and transfer
// of one run into a registry, and accumulates the run's own busy time per
// unit so settlement can charge the idle remainder.
type runMeter struct {
	units [2]unitMeter // CPU, GPU

	toGPUCount, toCPUCount *metrics.Counter
	toGPUBytes, toCPUBytes *metrics.Counter
	runs                   *metrics.Counter
	runSeconds             *metrics.Histogram
}

// unitMeter accounts one unit's batches: latency into a histogram (whose
// Sum is total batch time) and busy time registry-wide and per run.
type unitMeter struct {
	batch   *metrics.Histogram
	busy    *metrics.Float
	idle    *metrics.Float // nil when the platform lacks the unit
	runBusy metrics.Float  // per-run accumulation, feeds the idle remainder
}

func newRunMeter(reg *metrics.Registry, hasGPU bool) *runMeter {
	m := &runMeter{
		toGPUCount: reg.Counter(MetricToGPUTransfers),
		toCPUCount: reg.Counter(MetricToCPUTransfers),
		toGPUBytes: reg.Counter(MetricToGPUBytes),
		toCPUBytes: reg.Counter(MetricToCPUBytes),
		runs:       reg.Counter(MetricRuns),
		runSeconds: reg.Histogram(MetricRunSeconds),
	}
	m.units[0] = unitMeter{
		batch: reg.Histogram(MetricCPUBatchSeconds),
		busy:  reg.Float(MetricCPUBusySeconds),
		idle:  reg.Float(MetricCPUIdleSeconds),
	}
	if hasGPU {
		m.units[1] = unitMeter{
			batch: reg.Histogram(MetricGPUBatchSeconds),
			busy:  reg.Float(MetricGPUBusySeconds),
			idle:  reg.Float(MetricGPUIdleSeconds),
		}
	}
	return m
}

func (m *runMeter) hooks() Hooks {
	return Hooks{
		Batch: func(gpu bool, _ Batch, start, end float64) {
			u := &m.units[0]
			if gpu {
				u = &m.units[1]
			}
			d := end - start
			u.batch.Observe(d)
			u.busy.Add(d)
			u.runBusy.Add(d)
		},
		Transfer: func(toGPU bool, n int64, _, _ float64) {
			if toGPU {
				m.toGPUCount.Inc()
				m.toGPUBytes.Add(uint64(n))
			} else {
				m.toCPUCount.Inc()
				m.toCPUBytes.Add(uint64(n))
			}
		},
	}
}

// finish settles the run's derived metrics: the makespan observation and the
// per-unit idle remainder makespan − Σ batch time. Batches overlapping on a
// unit (two chains of the advanced division sharing the CPU) can push the
// busy sum past the makespan, in which case the idle charge clamps at zero.
func (m *runMeter) finish(makespan float64) {
	m.runs.Inc()
	m.runSeconds.Observe(makespan)
	for i := range m.units {
		u := &m.units[i]
		if d := makespan - u.runBusy.Value(); u.idle != nil && d > 0 {
			u.idle.Add(d)
		}
	}
}
