package core

import (
	"context"
	"fmt"

	"repro/internal/dcerr"
)

// MultiGPUBackend is a Backend with several GPU devices (the §3.2 extension
// to multiple cards). Devices share the host link.
type MultiGPUBackend interface {
	Backend
	// GPUs returns the device list; GPU() must be GPUs()[0].
	GPUs() []LevelExecutor
}

// RunMultiGPUCtx is the advanced work division with the GPU portion striped
// across all devices of the backend: at the split level the CPU keeps α of
// the subproblems and each device receives an equal contiguous share of the
// rest, running it bottom-up through level y before handing back. It runs
// the same body as RunAdvancedHybridCtx, so on one device the two are the
// same run. Each device costs two link crossings, so more devices only pay
// off when the per-device work dwarfs the extra transfers — the trade-off
// the paper's footnote 5 cites for using a single die of the HD 5970.
//
// The strategy is "advanced-<k>gpu" for the k devices that received a
// stripe. Report.GPUPortionSeconds is the latest stripe's device-done time
// (after its download) measured from the fork. ctx is checked at every
// level boundary of every chain; on cancellation the partial Report's error
// wraps dcerr.ErrCanceled. The split level defaults to DefaultSplit;
// override it with WithSplit. As in RunAdvancedHybridCtx, hook sets
// (WithHooks, WithMetrics) see every batch, on every device, and WithGrain
// coarsens the CPU portion.
func RunMultiGPUCtx(ctx context.Context, be MultiGPUBackend, alg GPUAlg, alpha float64, y int, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	ibe := instrument(be, &cfg)
	if err := checkOpen(ibe); err != nil {
		return Report{}, err
	}
	devices := ibe.(MultiGPUBackend).GPUs()
	if len(devices) == 0 {
		return Report{}, fmt.Errorf("core: %w (multi-GPU strategy)", dcerr.ErrNoGPU)
	}
	return runAdvanced(ctx, ibe, &cfg, alg, alpha, y, devices,
		func(k int) string { return fmt.Sprintf("advanced-%dgpu", k) })
}
