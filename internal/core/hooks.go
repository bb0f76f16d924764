package core

import "slices"

// Hooks is one set of callbacks on a run's backend traffic: an observer
// (metrics, tracing, calibration), a gate (fault injection), or both. Any
// field may be nil. Hook sets are attached with WithHooks; the executors
// then drive the backend through one interposer that calls every set.
type Hooks struct {
	// Batch observes a completed non-empty batch on the GPU (gpu=true) or
	// the CPU. start and end are backend timestamps (Backend.Now) taken
	// when the batch was submitted and when it completed, so the interval
	// covers queueing, any gate stall, and service.
	Batch func(gpu bool, b Batch, start, end float64)
	// Transfer observes a completed n-byte link transfer, host→device when
	// toGPU, bracketed like Batch.
	Transfer func(toGPU bool, n int64, start, end float64)
	// Gate decides whether an operation reaches the device. gpu is true for
	// GPU batches and transfers, false for CPU batches. Gate must call
	// exactly one of run (now or later, e.g. after a stall) or skip, which
	// short-circuits the operation: observers see it as a zero-length
	// completion and the device never sees it.
	Gate func(gpu bool, run, skip func())
	// Fault reports a device fault the hook set recorded during the run, or
	// nil. The interposer's Fault consults every set before the device.
	Fault func() error
}

// WithHooks appends hook sets to the run. Sets compose: each sees every
// batch and transfer, and gates run in attachment order.
func WithHooks(h ...Hooks) Option {
	return func(c *RunConfig) { c.Hooks = append(c.Hooks, h...) }
}

// instrument returns the backend the run's executor drives: be itself when
// the run has no hooks and no metrics, otherwise one interposer carrying
// the run's hook sets and — last, so it accounts the run exactly as gated —
// the metrics meter.
func instrument(be Backend, cfg *RunConfig) Backend {
	if len(cfg.Hooks) == 0 && cfg.Metrics == nil {
		return be
	}
	p := &interposer{inner: be, hooks: cfg.Hooks}
	if cfg.Metrics != nil {
		p.meter = newRunMeter(cfg.Metrics, be.GPU() != nil)
		p.hooks = append(slices.Clip(p.hooks), p.meter.hooks())
	}
	for _, h := range p.hooks {
		p.gated = p.gated || h.Gate != nil
	}
	p.cpu = &hookedUnit{p: p, inner: be.CPU()}
	if g := be.GPU(); g != nil {
		p.gpu = &hookedUnit{p: p, inner: g, gpu: true}
		p.gpus = []LevelExecutor{p.gpu}
	}
	if m, ok := be.(MultiGPUBackend); ok && p.gpu != nil {
		for _, g := range m.GPUs()[1:] {
			p.gpus = append(p.gpus, &hookedUnit{p: p, inner: g, gpu: true})
		}
	}
	return p
}

// settleMeter charges a finished run's makespan-derived metrics when be is
// an interposer carrying the metrics hook set.
func settleMeter(be Backend, makespan float64) {
	if p, ok := be.(*interposer); ok && p.meter != nil {
		p.meter.finish(makespan)
	}
}

// interposer is the one Backend that delegates to another. It drops empty
// batches, reads the clock once at each end of every batch and transfer,
// runs the gates inside that interval, and fans the interval out to every
// hook set. Every device of a MultiGPUBackend gets its own unit, so a
// striped run's per-device batches pass the hooks too. Capabilities the
// executors probe for (Autonomous, Closer, Faulter, DeviceProber,
// SegmentAllocator) forward to the device.
type interposer struct {
	inner    Backend
	hooks    []Hooks
	gated    bool
	cpu, gpu *hookedUnit
	gpus     []LevelExecutor // gpu first, then the other devices' units
	meter    *runMeter       // nil without WithMetrics
}

// CPU implements Backend.
func (p *interposer) CPU() LevelExecutor { return p.cpu }

// GPU implements Backend.
func (p *interposer) GPU() LevelExecutor {
	if p.gpu == nil {
		return nil
	}
	return p.gpu
}

// GPUs implements MultiGPUBackend: every device, each seen through its own
// unit.
func (p *interposer) GPUs() []LevelExecutor { return p.gpus }

// GPUGamma implements Backend.
func (p *interposer) GPUGamma() float64 { return p.inner.GPUGamma() }

// TransferToGPU implements Backend.
func (p *interposer) TransferToGPU(n int64, done func()) { p.transfer(true, n, done) }

// TransferToCPU implements Backend.
func (p *interposer) TransferToCPU(n int64, done func()) { p.transfer(false, n, done) }

func (p *interposer) transfer(toGPU bool, n int64, done func()) {
	start := p.inner.Now()
	complete := func() {
		end := p.inner.Now()
		for i := range p.hooks {
			if f := p.hooks[i].Transfer; f != nil {
				f(toGPU, n, start, end)
			}
		}
		if done != nil {
			done()
		}
	}
	if p.gated {
		p.gate(0, true, func() { p.send(toGPU, n, complete) }, complete)
		return
	}
	p.send(toGPU, n, complete)
}

func (p *interposer) send(toGPU bool, n int64, done func()) {
	if toGPU {
		p.inner.TransferToGPU(n, done)
	} else {
		p.inner.TransferToCPU(n, done)
	}
}

// gate passes the operation through the gates of hooks[i:], then runs it.
func (p *interposer) gate(i int, gpu bool, run, skip func()) {
	for ; i < len(p.hooks); i++ {
		if g := p.hooks[i].Gate; g != nil {
			g(gpu, func() { p.gate(i+1, gpu, run, skip) }, skip)
			return
		}
	}
	run()
}

// Now implements Backend.
func (p *interposer) Now() float64 { return p.inner.Now() }

// Wait implements Backend.
func (p *interposer) Wait() { p.inner.Wait() }

// Autonomous implements the Autonomous marker by forwarding the device's.
func (p *interposer) Autonomous() bool { return autonomous(p.inner) }

// Closed implements Closer by forwarding the device's state.
func (p *interposer) Closed() bool {
	c, ok := p.inner.(Closer)
	return ok && c.Closed()
}

// Fault implements Faulter: the first fault a hook set recorded, else the
// device's own.
func (p *interposer) Fault() error {
	for i := range p.hooks {
		if f := p.hooks[i].Fault; f != nil {
			if err := f(); err != nil {
				return err
			}
		}
	}
	return deviceFault(p.inner)
}

// ProbeDevice implements DeviceProber by forwarding to the device; a
// device without a probe reports healthy.
func (p *interposer) ProbeDevice() error {
	if d, ok := p.inner.(DeviceProber); ok {
		return d.ProbeDevice()
	}
	return nil
}

// AllocSegment implements SegmentAllocator by leasing from the device, or
// returns nil (a no-op lease) when the device manages no segments.
func (p *interposer) AllocSegment(bytes int64) *Segment {
	if sa, ok := p.inner.(SegmentAllocator); ok {
		return sa.AllocSegment(bytes)
	}
	return nil
}

// hookedUnit is one processing unit seen through the interposer.
type hookedUnit struct {
	p     *interposer
	inner LevelExecutor
	gpu   bool
}

// Parallelism implements LevelExecutor.
func (u *hookedUnit) Parallelism() int { return u.inner.Parallelism() }

// Submit implements LevelExecutor.
func (u *hookedUnit) Submit(b Batch, done func()) {
	if b.Empty() {
		if done != nil {
			done()
		}
		return
	}
	p := u.p
	start := p.inner.Now()
	complete := func() {
		end := p.inner.Now()
		for i := range p.hooks {
			if f := p.hooks[i].Batch; f != nil {
				f(u.gpu, b, start, end)
			}
		}
		if done != nil {
			done()
		}
	}
	if !p.gated {
		u.inner.Submit(b, complete)
		return
	}
	p.gate(0, u.gpu, func() { u.inner.Submit(b, complete) }, complete)
}
