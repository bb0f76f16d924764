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
// rest, running it bottom-up through level y before handing back. Each
// device costs two link crossings, so more devices only pay off when the
// per-device work dwarfs the extra transfers — the trade-off the paper's
// footnote 5 cites for using a single die of the HD 5970.
//
// ctx is checked at every level boundary of every chain; on cancellation the
// partial Report's error wraps dcerr.ErrCanceled. The split level defaults
// to DefaultSplit; override it with WithSplit. Hook sets (WithHooks,
// WithMetrics) see the CPU and transfer traffic but not the per-device
// submissions, which go to the raw device executors.
func RunMultiGPUCtx(ctx context.Context, be MultiGPUBackend, alg GPUAlg, alpha float64, y int, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	ibe := instrument(be, &cfg)
	if err := checkOpen(ibe); err != nil {
		return Report{}, err
	}
	devices := be.GPUs()
	if len(devices) == 0 {
		return Report{}, fmt.Errorf("core: %w (multi-GPU strategy)", dcerr.ErrNoGPU)
	}
	L := alg.Levels()
	a := alg.Arity()
	if alpha < 0 || alpha > 1 {
		return Report{}, fmt.Errorf("core: alpha %g: %w", alpha, dcerr.ErrBadAlpha)
	}
	if y < 0 || y > L {
		return Report{}, fmt.Errorf("core: transfer level %d out of range [0,%d]: %w", y, L, dcerr.ErrBadLevel)
	}
	s := DefaultSplit(alg, ibe.CPU().Parallelism(), alpha, y)
	if cfg.SplitSet {
		s = cfg.Split
	}
	if s > y {
		return Report{}, fmt.Errorf("core: split level %d above transfer level %d: %w", s, y, dcerr.ErrBadLevel)
	}

	width := TasksAtLevel(a, s)
	cCount := int(alpha*float64(width) + 0.5)
	if cCount < 0 {
		cCount = 0
	}
	if cCount > width {
		cCount = width
	}
	gCount := width - cCount
	k := len(devices)
	if gCount < k {
		k = gCount // fewer subproblems than devices: leave the rest idle
	}
	at := func(l, c0, c1 int) (int, int) {
		f := TasksAtLevel(a, l-s)
		return c0 * f, c1 * f
	}

	start := ibe.Now()

	// Joint top divide phase, full width, on CPU.
	top := getSteps()
	defer func() { putSteps(top) }()
	for l := 0; l < s; l++ {
		b := atLevel(alg.DivideBatch(l, 0, TasksAtLevel(a, l)), l)
		top = append(top, func(next func()) { ibe.CPU().Submit(b, next) })
	}

	// CPU chain over portion [0, cCount).
	cpuChain := getSteps()
	defer func() { putSteps(cpuChain) }()
	if cCount > 0 {
		for l := s; l < L; l++ {
			lo, hi := at(l, 0, cCount)
			b := atLevel(alg.DivideBatch(l, lo, hi), l)
			cpuChain = append(cpuChain, func(next func()) { ibe.CPU().Submit(b, next) })
		}
		lo, hi := at(L, 0, cCount)
		base := atLevel(alg.BaseBatch(lo, hi), L)
		cpuChain = append(cpuChain, func(next func()) { ibe.CPU().Submit(base, next) })
		for l := L - 1; l >= s; l-- {
			lo, hi := at(l, 0, cCount)
			b := atLevel(alg.CombineBatch(l, lo, hi), l)
			cpuChain = append(cpuChain, func(next func()) { ibe.CPU().Submit(b, next) })
		}
	}

	// One chain per device over its contiguous stripe of the GPU portion.
	// Each stripe stages into a leased device segment when the backend
	// pools device memory, released with the chain.
	tr, _ := alg.(Transformable)
	sa, _ := ibe.(SegmentAllocator)
	segs := make([]*Segment, k)
	defer func() {
		for _, sg := range segs {
			sg.Release()
		}
	}()
	deviceChain := func(d int, dev LevelExecutor, c0, c1 int) []step {
		chain := getSteps()
		bytes := alg.GPUBytes(s, c0, c1)
		if sa != nil {
			chain = append(chain, func(next func()) { segs[d] = sa.AllocSegment(bytes); next() })
		}
		chain = append(chain, func(next func()) { ibe.TransferToGPU(bytes, next) })
		for l := s; l < L; l++ {
			l := l
			chain = append(chain, func(next func()) {
				lo, hi := at(l, c0, c1)
				dev.Submit(atLevel(alg.GPUDivideBatch(l, lo, hi), l), next)
			})
		}
		if cfg.Coalesce && tr != nil {
			chain = append(chain, func(next func()) {
				lo, hi := at(L, c0, c1)
				dev.Submit(atLevel(tr.PermuteForGPU(L, lo, hi), L), next)
			})
		}
		chain = append(chain, func(next func()) {
			lo, hi := at(L, c0, c1)
			dev.Submit(atLevel(alg.GPUBaseBatch(lo, hi), L), next)
		})
		for l := L - 1; l >= y; l-- {
			l := l
			chain = append(chain, func(next func()) {
				lo, hi := at(l, c0, c1)
				dev.Submit(atLevel(alg.GPUCombineBatch(l, lo, hi), l), next)
			})
		}
		if cfg.Coalesce && tr != nil {
			chain = append(chain, func(next func()) {
				lo, hi := at(y, c0, c1)
				dev.Submit(atLevel(tr.PermuteBack(y, lo, hi), y), next)
			})
		}
		chain = append(chain, func(next func()) { ibe.TransferToCPU(bytes, next) })
		// Continue this stripe on the CPU above the transfer level.
		for l := y - 1; l >= s; l-- {
			l := l
			chain = append(chain, func(next func()) {
				lo, hi := at(l, c0, c1)
				ibe.CPU().Submit(atLevel(alg.CombineBatch(l, lo, hi), l), next)
			})
		}
		return chain
	}

	// Joint combine phase above the split, full width, on CPU.
	tail := getSteps()
	defer func() { putSteps(tail) }()
	for l := s - 1; l >= 0; l-- {
		b := atLevel(alg.CombineBatch(l, 0, TasksAtLevel(a, l)), l)
		tail = append(tail, func(next func()) { ibe.CPU().Submit(b, next) })
	}

	rep := Report{Algorithm: alg.Name(), Strategy: fmt.Sprintf("advanced-%dgpu", k)}
	done := make(chan struct{})
	var canceled bool

	runSeqCtx(ctx, top, func(c bool) {
		if c {
			canceled = true
			close(done)
			return
		}
		forkAt := ibe.Now()
		chains := 1 + k
		var anyCanceled bool
		join := Join(chains, func() {
			if anyCanceled {
				canceled = true
				close(done)
				return
			}
			runSeqCtx(ctx, tail, func(c bool) { canceled = c; close(done) })
		})
		runSeqCtx(ctx, cpuChain, func(c bool) {
			if c {
				anyCanceled = true
			}
			rep.CPUPortionSeconds = ibe.Now() - forkAt
			join()
		})
		// Stripe the GPU portion: device d gets [cCount + d·per, ...).
		for d := 0; d < k; d++ {
			per := gCount / k
			extra := gCount % k
			c0 := cCount + d*per + min(d, extra)
			c1 := c0 + per
			if d < extra {
				c1++
			}
			chain := deviceChain(d, devices[d], c0, c1)
			runSeqCtx(ctx, chain, func(c bool) {
				if c {
					anyCanceled = true
				}
				if t := ibe.Now() - forkAt; t > rep.GPUPortionSeconds {
					rep.GPUPortionSeconds = t
				}
				putSteps(chain)
				join()
			})
		}
	})
	awaitChain(ibe, done)
	return rep, settle(ctx, ibe, &cfg, alg, &rep, start, canceled)
}
