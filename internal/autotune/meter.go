package autotune

import (
	"sync"

	"repro/internal/core"
)

// Meter accumulates the raw material of one attempt's Observation: busy
// seconds per side and the link's bytes and seconds. It is the
// calibrator's tap on the signals the executors already emit — batch
// completion timing and transfer sizes — attached by the serving layer as
// a hook set (Hooks), so it times exactly what the metrics and the tracer
// time. The mutex is required because a native backend completes batches
// on many goroutines.
type Meter struct {
	mu sync.Mutex
	s  Sample
}

// NewMeter returns an empty meter for one attempt's measurement.
func NewMeter() *Meter { return &Meter{} }

// Sample is the meter's aggregated measurement.
type Sample struct {
	CPUSeconds, GPUSeconds float64
	TransferBytes          int64
	TransferSeconds        float64
	Transfers              int
	CPUBatches, GPUBatches int
}

// Hooks returns the hook set feeding the meter; attach it with
// core.WithHooks.
func (m *Meter) Hooks() core.Hooks {
	return core.Hooks{
		Batch: func(gpu bool, _ core.Batch, start, end float64) {
			m.mu.Lock()
			if gpu {
				m.s.GPUSeconds += end - start
				m.s.GPUBatches++
			} else {
				m.s.CPUSeconds += end - start
				m.s.CPUBatches++
			}
			m.mu.Unlock()
		},
		Transfer: func(_ bool, n int64, start, end float64) {
			m.mu.Lock()
			m.s.TransferBytes += n
			m.s.TransferSeconds += end - start
			m.s.Transfers++
			m.mu.Unlock()
		},
	}
}

// Snapshot returns the accumulated measurement.
func (m *Meter) Snapshot() Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// Empty reports that the meter saw no work, so there is nothing to
// calibrate from.
func (m *Meter) Empty() bool {
	s := m.Snapshot()
	return s.CPUBatches == 0 && s.GPUBatches == 0 && s.Transfers == 0
}
