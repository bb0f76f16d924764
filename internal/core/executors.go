package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dcerr"
)

// Report summarizes one execution.
type Report struct {
	Algorithm string
	Strategy  string
	// AutoStrategy is the strategy the serving layer's auto-tuner chose for
	// the job ("" unless the job was submitted with Strategy Auto). It can
	// differ from Strategy when a reliability policy substituted the
	// execution path (a CPU fallback or a hedge win runs bf-cpu whatever
	// was chosen).
	AutoStrategy string
	// Seconds is the total makespan. For a canceled (Partial) run it is the
	// time from start to the level boundary where execution stopped.
	Seconds float64
	// CPUPortionSeconds is, for the advanced strategy, the time at which
	// the CPU finished its α-portion (measured from the fork); for other
	// strategies it is the time spent in CPU phases.
	CPUPortionSeconds float64
	// GPUPortionSeconds is, for the advanced strategy, the time at which
	// the GPU portion's transfer back finished (on several devices, the
	// latest stripe's), measured from the fork; for GPU-only runs it is the
	// device-resident time excluding transfers.
	GPUPortionSeconds float64
	// Partial reports that the run was canceled at a level boundary before
	// completing; the instance's result data is not valid.
	Partial bool
}

// DefaultSplit returns the natural split level for the advanced strategy:
// the level (from the top) at which the CPU's α-portion first contains at
// least p subproblems, ⌈log_a(p/α)⌉, clamped to [0, y]. Below this level the
// CPU side can keep all p cores busy, matching the §5.2 analysis.
func DefaultSplit(alg Alg, p int, alpha float64, y int) int {
	if alpha <= 0 {
		return 0
	}
	a := alg.Arity()
	s := 0
	for TasksAtLevel(a, s) > 0 && alpha*float64(TasksAtLevel(a, s)) < float64(p) && s < y {
		s++
	}
	if s > y {
		s = y
	}
	return s
}

// Autonomous marks backends whose submitted work progresses on its own
// goroutines, so an executor can block on its chain's completion signal
// without driving Wait. Event-loop backends (the simulator) lack this
// method — or return false — and are driven via Wait instead.
type Autonomous interface {
	Autonomous() bool
}

// Closer is implemented by backends with an explicit shutdown; executors
// refuse to start on a closed backend.
type Closer interface {
	Closed() bool
}

// Faulter is implemented by backends that can report a device fault
// observed while a run was in flight — the hook interposer, relaying a
// hook set's fault (the injector of internal/faults), or a real device
// adapter surfacing asynchronous launch errors. Executors consult it when
// the run's chain completes: a non-nil fault marks the Report partial and
// classifies the run's error under dcerr.ErrDeviceFault, so the serving
// layer's retry and fallback policies can re-divide the work instead of
// returning corrupt results.
type Faulter interface {
	// Fault returns the first device fault observed during the run, or nil.
	Fault() error
}

// DeviceProber is implemented by backends that can cheaply verify their
// device path is alive without submitting work. The serving layer's circuit
// breaker consults it before admitting a half-open trial job.
type DeviceProber interface {
	// ProbeDevice returns nil when the device path can accept work.
	ProbeDevice() error
}

// deviceFault returns the backend chain's recorded fault, if any.
func deviceFault(be Backend) error {
	if f, ok := be.(Faulter); ok {
		return f.Fault()
	}
	return nil
}

func autonomous(be Backend) bool {
	a, ok := be.(Autonomous)
	return ok && a.Autonomous()
}

// checkOpen returns ErrBackendClosed if the backend reports itself closed.
func checkOpen(be Backend) error {
	if c, ok := be.(Closer); ok && c.Closed() {
		return fmt.Errorf("core: %w", dcerr.ErrBackendClosed)
	}
	return nil
}

// atLevel stamps the batch with its recursion level for observability
// layers (trace spans, per-level metrics).
func atLevel(b Batch, l int) Batch {
	b.Level = l
	return b
}

// step is one asynchronous stage of an execution plan.
type step func(next func())

// stepsPool recycles the executors' plan slices. A plan is one slice of
// step closures per run (a few per hybrid run); leasing the slice spine
// here removes the append-growth garbage from every Submit on the serving
// hot path. The closures themselves still allocate — they capture per-run
// state — but the spine dominated the slice churn.
var stepsPool = sync.Pool{New: func() any {
	s := make([]step, 0, 64)
	return &s
}}

// getSteps leases an empty plan slice.
func getSteps() []step {
	return (*stepsPool.Get().(*[]step))[:0]
}

// putSteps returns a plan slice once its chain has fully completed. The
// stored closures are cleared so pooled spines don't pin per-run captures.
func putSteps(s []step) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	stepsPool.Put(&s)
}

// runSeq chains steps sequentially, then calls done.
func runSeq(steps []step, done func()) {
	runSeqCtx(context.Background(), steps, func(bool) { done() })
}

// runSeqCtx chains steps sequentially, checking for cancellation before each
// step (a level boundary). done fires exactly once, with canceled=true if
// the chain stopped early. The in-flight step always completes before the
// chain stops, so no batch is ever abandoned mid-service.
func runSeqCtx(ctx context.Context, steps []step, done func(canceled bool)) {
	cdone := ctx.Done()
	var at func(i int)
	at = func(i int) {
		if cdone != nil && ctx.Err() != nil {
			done(true)
			return
		}
		if i == len(steps) {
			done(false)
			return
		}
		steps[i](func() { at(i + 1) })
	}
	at(0)
}

// awaitChain blocks until the chain that will close done has finished. For
// event-loop backends it drives Wait; for autonomous backends it blocks on
// the signal alone, so concurrent runs sharing the backend do not wait for
// each other.
func awaitChain(be Backend, done <-chan struct{}) {
	if autonomous(be) {
		<-done
		return
	}
	be.Wait()
	select {
	case <-done:
	default:
		panic("core: execution did not complete")
	}
}

// canceledErr wraps the cancellation cause under the typed sentinel.
func canceledErr(ctx context.Context, alg Alg, strategy string) error {
	if cause := context.Cause(ctx); cause != nil && cause != context.Canceled {
		return fmt.Errorf("core: %s %s: %w: %w", alg.Name(), strategy, dcerr.ErrCanceled, cause)
	}
	return fmt.Errorf("core: %s %s: %w", alg.Name(), strategy, dcerr.ErrCanceled)
}

// finish invokes the algorithm's Finish hook, if any.
func finish(alg Alg) {
	type finisher interface{ Finish() }
	if f, ok := alg.(finisher); ok {
		f.Finish()
	}
}

// settle finalizes a report after its chain completed: stamps the makespan,
// runs the Finish hook (only for complete, fault-free runs — a partial
// result is not valid data), applies observers, and builds the cancellation
// or device-fault error. A device fault recorded by a Faulter takes
// precedence over cancellation: the fault is the more specific cause, and
// its error already classifies under dcerr.ErrDeviceFault.
func settle(ctx context.Context, be Backend, cfg *RunConfig, alg Alg, rep *Report, start float64, canceled bool) error {
	rep.Seconds = be.Now() - start
	rep.AutoStrategy = cfg.AutoStrategy
	settleMeter(be, rep.Seconds)
	var err error
	switch fault := deviceFault(be); {
	case fault != nil:
		rep.Partial = true
		err = fmt.Errorf("core: %s %s: %w", alg.Name(), rep.Strategy, fault)
	case canceled:
		rep.Partial = true
		err = canceledErr(ctx, alg, rep.Strategy)
	default:
		finish(alg)
	}
	if cfg.Observe != nil {
		cfg.Observe(rep)
	}
	return err
}

// RunSequentialCtx executes the algorithm on a single CPU core (the paper's
// recursive baseline), checking ctx at every level boundary. On cancellation
// it returns a partial Report and an error wrapping dcerr.ErrCanceled.
// WithGrain is accepted but has no effect — the run is already one task per
// level on one core.
func RunSequentialCtx(ctx context.Context, be Backend, alg Alg, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	be = instrument(be, &cfg)
	if err := checkOpen(be); err != nil {
		return Report{}, err
	}
	L := alg.Levels()
	a := alg.Arity()
	steps := getSteps()
	defer func() { putSteps(steps) }()
	for l := 0; l < L; l++ {
		b := atLevel(alg.DivideBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { submitSeq(be, b, next) })
	}
	base := atLevel(alg.BaseBatch(0, TasksAtLevel(a, L)), L)
	steps = append(steps, func(next func()) { submitSeq(be, base, next) })
	for l := L - 1; l >= 0; l-- {
		b := atLevel(alg.CombineBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { submitSeq(be, b, next) })
	}

	rep := Report{Algorithm: alg.Name(), Strategy: "seq-1cpu"}
	start := be.Now()
	done := make(chan struct{})
	var canceled bool
	runSeqCtx(ctx, steps, func(c bool) { canceled = c; close(done) })
	awaitChain(be, done)
	return rep, settle(ctx, be, &cfg, alg, &rep, start, canceled)
}

// RunBreadthFirstCPUCtx executes the algorithm breadth-first on the CPU
// only, using all p cores per level (the multi-core baseline), checking ctx
// at every level boundary. With WithGrain the bottom levels collapse into
// depth-first coarse chunks (grain.go); the result is bit-identical.
func RunBreadthFirstCPUCtx(ctx context.Context, be Backend, alg Alg, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	be = instrument(be, &cfg)
	if err := checkOpen(be); err != nil {
		return Report{}, err
	}
	L := alg.Levels()
	a := alg.Arity()
	k := coarseLevels(cfg.Grain, a, L, 0, be.CPU().Parallelism(),
		func(cl int) int { return TasksAtLevel(a, cl) })
	cl := L - k
	steps := getSteps()
	defer func() { putSteps(steps) }()
	for l := 0; l < cl; l++ {
		b := atLevel(alg.DivideBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { be.CPU().Submit(b, next) })
	}
	if k > 0 {
		// Coarse step: divide cl..L-1, base, combine L-1..cl, one
		// depth-first chunk per subtree rooted at cl.
		b := CoarseBatch(alg, cl, 0, TasksAtLevel(a, cl))
		steps = append(steps, func(next func()) { be.CPU().Submit(b, next) })
	} else {
		base := atLevel(alg.BaseBatch(0, TasksAtLevel(a, L)), L)
		steps = append(steps, func(next func()) { be.CPU().Submit(base, next) })
	}
	for l := cl - 1; l >= 0; l-- {
		b := atLevel(alg.CombineBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { be.CPU().Submit(b, next) })
	}

	rep := Report{Algorithm: alg.Name(), Strategy: "bf-cpu"}
	start := be.Now()
	done := make(chan struct{})
	var canceled bool
	runSeqCtx(ctx, steps, func(c bool) { canceled = c; close(done) })
	awaitChain(be, done)
	return rep, settle(ctx, be, &cfg, alg, &rep, start, canceled)
}

// RunBasicHybridCtx executes the §5.1 basic work division: levels above the
// crossover run on the CPU (full width), levels at and below it — including
// the leaves — run on the GPU, with a single round trip across the link.
// crossover is the level index i at which execution moves to the GPU; use
// the model package's BasicCrossover to compute the paper's log_a(p/γ).
// ctx is checked at every level boundary; on cancellation the partial
// Report's error wraps dcerr.ErrCanceled. WithGrain is accepted but has no
// effect: the CPU portion holds only the levels above the crossover, never
// a leaf-adjacent phase that coarsening could collapse.
func RunBasicHybridCtx(ctx context.Context, be Backend, alg GPUAlg, crossover int, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	be = instrument(be, &cfg)
	if err := checkOpen(be); err != nil {
		return Report{}, err
	}
	L := alg.Levels()
	if crossover < 0 || crossover > L {
		return Report{}, fmt.Errorf("core: crossover level %d out of range [0,%d]: %w", crossover, L, dcerr.ErrBadLevel)
	}
	if be.GPU() == nil {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	a := alg.Arity()
	x := crossover
	start := be.Now()
	steps := getSteps()
	defer func() { putSteps(steps) }()

	// Top divide phase on CPU.
	for l := 0; l < x; l++ {
		b := atLevel(alg.DivideBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { be.CPU().Submit(b, next) })
	}
	// Ship the whole instance to the device, staging into a leased segment
	// when the backend pools device memory (released after the chain, so
	// the next same-shape run reuses the residency).
	bytes := alg.GPUBytes(x, 0, TasksAtLevel(a, x))
	sa, _ := be.(SegmentAllocator)
	var seg *Segment
	defer func() { seg.Release() }()
	if sa != nil {
		steps = append(steps, func(next func()) { seg = sa.AllocSegment(bytes); next() })
	}
	steps = append(steps, func(next func()) { be.TransferToGPU(bytes, next) })
	// Device-resident phase: divide down, base, combine back up to x.
	for l := x; l < L; l++ {
		b := atLevel(alg.GPUDivideBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { be.GPU().Submit(b, next) })
	}
	tr, _ := alg.(Transformable)
	if cfg.Coalesce && tr != nil {
		b := atLevel(tr.PermuteForGPU(L, 0, TasksAtLevel(a, L)), L)
		steps = append(steps, func(next func()) { be.GPU().Submit(b, next) })
	}
	steps = append(steps, func(next func()) {
		// Constructed lazily: a preceding permute step may have changed
		// the algorithm's device layout state.
		be.GPU().Submit(atLevel(alg.GPUBaseBatch(0, TasksAtLevel(a, L)), L), next)
	})
	for l := L - 1; l >= x; l-- {
		l := l
		steps = append(steps, func(next func()) {
			be.GPU().Submit(atLevel(alg.GPUCombineBatch(l, 0, TasksAtLevel(a, l)), l), next)
		})
	}
	if cfg.Coalesce && tr != nil {
		steps = append(steps, func(next func()) {
			be.GPU().Submit(atLevel(tr.PermuteBack(x, 0, TasksAtLevel(a, x)), x), next)
		})
	}
	steps = append(steps, func(next func()) { be.TransferToCPU(bytes, next) })
	rep := Report{Algorithm: alg.Name(), Strategy: "basic-hybrid"}
	steps = append(steps, func(next func()) { rep.GPUPortionSeconds = be.Now() - start; next() })
	// Remaining combine levels on CPU.
	for l := x - 1; l >= 0; l-- {
		b := atLevel(alg.CombineBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { be.CPU().Submit(b, next) })
	}

	done := make(chan struct{})
	var canceled bool
	runSeqCtx(ctx, steps, func(c bool) { canceled = c; close(done) })
	awaitChain(be, done)
	return rep, settle(ctx, be, &cfg, alg, &rep, start, canceled)
}

// RunAdvancedHybridCtx executes the §5.2 advanced work division
// (Algorithm 8). At the split level the subproblems are partitioned
// α : (1−α); the CPU solves its portion breadth-first while the GPU solves
// the rest bottom-up through level y, hands it back (the second and last
// transfer), and the CPU finishes everything above. CPU-side work of both
// chains shares the same p cores, as in the paper's two-thread
// implementation. The split level defaults to DefaultSplit; override it with
// WithSplit. ctx is checked at every level boundary of all three chains.
func RunAdvancedHybridCtx(ctx context.Context, be Backend, alg GPUAlg, alpha float64, y int, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	be = instrument(be, &cfg)
	if err := checkOpen(be); err != nil {
		return Report{}, err
	}
	var devices []LevelExecutor
	if g := be.GPU(); g != nil {
		devices = []LevelExecutor{g}
	}
	return runAdvanced(ctx, be, &cfg, alg, alpha, y, devices, func(int) string { return "advanced-hybrid" })
}

// runAdvanced is the advanced division over a device list, the one body
// behind RunAdvancedHybridCtx (one device) and RunMultiGPUCtx (the §3.2
// extension to several). The GPU portion is striped over the first
// k = min(len(devices), GPU-portion width) devices, each stripe an equal
// contiguous share with its own pair of link crossings. be is the run's
// backend as instrument returned it, and devices come from it, so every
// submission passes the run's hook sets. strategy names the run given k.
//
// Report.CPUPortionSeconds is the CPU chain's finish and GPUPortionSeconds
// the latest stripe's device-done time (after its download), both measured
// from the fork.
func runAdvanced(ctx context.Context, be Backend, cfg *RunConfig, alg GPUAlg, alpha float64, y int, devices []LevelExecutor, strategy func(stripes int) string) (Report, error) {
	L := alg.Levels()
	a := alg.Arity()
	if alpha < 0 || alpha > 1 {
		return Report{}, fmt.Errorf("core: alpha %g: %w", alpha, dcerr.ErrBadAlpha)
	}
	if y < 0 || y > L {
		return Report{}, fmt.Errorf("core: transfer level %d out of range [0,%d]: %w", y, L, dcerr.ErrBadLevel)
	}
	if len(devices) == 0 {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	s := DefaultSplit(alg, be.CPU().Parallelism(), alpha, y)
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
	// at returns the index range of a portion [c0,c1) (defined at level s)
	// at level l ≥ s.
	at := func(l, c0, c1 int) (int, int) {
		f := TasksAtLevel(a, l-s)
		return c0 * f, c1 * f
	}

	start := be.Now()

	// Joint top divide phase, full width, on CPU.
	top := getSteps()
	defer func() { putSteps(top) }()
	for l := 0; l < s; l++ {
		b := atLevel(alg.DivideBatch(l, 0, TasksAtLevel(a, l)), l)
		top = append(top, func(next func()) { be.CPU().Submit(b, next) })
	}

	// CPU chain over portion [0, cCount). With WithGrain its bottom levels
	// collapse into depth-first coarse chunks, clamped at the split level
	// (the coarse root never rises above s); the GPU portion is untouched.
	cpuChain := getSteps()
	defer func() { putSteps(cpuChain) }()
	if cCount > 0 {
		k := coarseLevels(cfg.Grain, a, L, s, be.CPU().Parallelism(),
			func(cl int) int { lo, hi := at(cl, 0, cCount); return hi - lo })
		cl := L - k
		for l := s; l < cl; l++ {
			lo, hi := at(l, 0, cCount)
			b := atLevel(alg.DivideBatch(l, lo, hi), l)
			cpuChain = append(cpuChain, func(next func()) { be.CPU().Submit(b, next) })
		}
		if k > 0 {
			lo, hi := at(cl, 0, cCount)
			b := CoarseBatch(alg, cl, lo, hi)
			cpuChain = append(cpuChain, func(next func()) { be.CPU().Submit(b, next) })
		} else {
			lo, hi := at(L, 0, cCount)
			base := atLevel(alg.BaseBatch(lo, hi), L)
			cpuChain = append(cpuChain, func(next func()) { be.CPU().Submit(base, next) })
		}
		for l := cl - 1; l >= s; l-- {
			lo, hi := at(l, 0, cCount)
			b := atLevel(alg.CombineBatch(l, lo, hi), l)
			cpuChain = append(cpuChain, func(next func()) { be.CPU().Submit(b, next) })
		}
	}

	// One chain per stripe of the GPU portion [cCount, width): stripe d is
	// a contiguous share on devices[d]. Each stripe stages into a leased
	// device segment when the backend pools device memory, released with
	// the run.
	type stripe struct {
		chain    []step
		seg      *Segment
		doneAt   float64 // device-done time, after the download
		canceled bool
	}
	gCount := width - cCount
	stripes := make([]stripe, min(len(devices), gCount))
	defer func() {
		for i := range stripes {
			stripes[i].seg.Release()
			putSteps(stripes[i].chain)
		}
	}()
	tr, _ := alg.(Transformable)
	sa, _ := be.(SegmentAllocator)
	for d := range stripes {
		st, dev := &stripes[d], devices[d]
		per, extra := gCount/len(stripes), gCount%len(stripes)
		c0 := cCount + d*per + min(d, extra)
		c1 := c0 + per
		if d < extra {
			c1++
		}
		chain := getSteps()
		bytes := alg.GPUBytes(s, c0, c1)
		if sa != nil {
			chain = append(chain, func(next func()) { st.seg = sa.AllocSegment(bytes); next() })
		}
		chain = append(chain, func(next func()) { be.TransferToGPU(bytes, next) })
		for l := s; l < L; l++ {
			lo, hi := at(l, c0, c1)
			b := atLevel(alg.GPUDivideBatch(l, lo, hi), l)
			chain = append(chain, func(next func()) { dev.Submit(b, next) })
		}
		if cfg.Coalesce && tr != nil {
			lo, hi := at(L, c0, c1)
			b := atLevel(tr.PermuteForGPU(L, lo, hi), L)
			chain = append(chain, func(next func()) { dev.Submit(b, next) })
		}
		chain = append(chain, func(next func()) {
			lo, hi := at(L, c0, c1)
			dev.Submit(atLevel(alg.GPUBaseBatch(lo, hi), L), next)
		})
		for l := L - 1; l >= y; l-- {
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
		chain = append(chain, func(next func()) { be.TransferToCPU(bytes, next) })
		chain = append(chain, func(next func()) { st.doneAt = be.Now(); next() })
		// Above the transfer level the stripe continues on the CPU,
		// competing with the CPU chain for cores, as in the paper.
		for l := y - 1; l >= s; l-- {
			chain = append(chain, func(next func()) {
				lo, hi := at(l, c0, c1)
				be.CPU().Submit(atLevel(alg.CombineBatch(l, lo, hi), l), next)
			})
		}
		st.chain = chain
	}

	// Joint combine phase above the split, full width, on CPU.
	tail := getSteps()
	defer func() { putSteps(tail) }()
	for l := s - 1; l >= 0; l-- {
		b := atLevel(alg.CombineBatch(l, 0, TasksAtLevel(a, l)), l)
		tail = append(tail, func(next func()) { be.CPU().Submit(b, next) })
	}

	rep := Report{Algorithm: alg.Name(), Strategy: strategy(len(stripes))}
	done := make(chan struct{})
	var canceled bool

	runSeqCtx(ctx, top, func(c bool) {
		if c {
			canceled = true
			close(done)
			return
		}
		forkAt := be.Now()
		var cpuCanceled bool
		join := Join(1+len(stripes), func() {
			anyCanceled := cpuCanceled
			for _, st := range stripes {
				anyCanceled = anyCanceled || st.canceled
				if st.doneAt >= forkAt && st.doneAt-forkAt > rep.GPUPortionSeconds {
					rep.GPUPortionSeconds = st.doneAt - forkAt
				}
			}
			if anyCanceled {
				canceled = true
				close(done)
				return
			}
			runSeqCtx(ctx, tail, func(c bool) { canceled = c; close(done) })
		})
		runSeqCtx(ctx, cpuChain, func(c bool) {
			cpuCanceled = c
			rep.CPUPortionSeconds = be.Now() - forkAt
			join()
		})
		for d := range stripes {
			st := &stripes[d]
			runSeqCtx(ctx, st.chain, func(c bool) { st.canceled = c; join() })
		}
	})
	awaitChain(be, done)
	return rep, settle(ctx, be, cfg, alg, &rep, start, canceled)
}

// RunGPUOnlyCtx executes the whole algorithm breadth-first on the device
// (the Fig 9 baseline), checking ctx at every level boundary. The report's
// GPUPortionSeconds excludes the two host↔device transfers ("sort only" in
// the paper); Seconds includes them.
func RunGPUOnlyCtx(ctx context.Context, be Backend, alg GPUAlg, opts ...Option) (Report, error) {
	cfg := NewRunConfig(opts...)
	be = instrument(be, &cfg)
	if err := checkOpen(be); err != nil {
		return Report{}, err
	}
	if be.GPU() == nil {
		return Report{}, fmt.Errorf("core: %w", dcerr.ErrNoGPU)
	}
	L := alg.Levels()
	a := alg.Arity()
	start := be.Now()
	steps := getSteps()
	defer func() { putSteps(steps) }()
	bytes := alg.GPUBytes(0, 0, 1)
	sa, _ := be.(SegmentAllocator)
	var seg *Segment
	defer func() { seg.Release() }()
	if sa != nil {
		steps = append(steps, func(next func()) { seg = sa.AllocSegment(bytes); next() })
	}
	steps = append(steps, func(next func()) { be.TransferToGPU(bytes, next) })
	var devStart float64
	steps = append(steps, func(next func()) { devStart = be.Now(); next() })
	for l := 0; l < L; l++ {
		b := atLevel(alg.GPUDivideBatch(l, 0, TasksAtLevel(a, l)), l)
		steps = append(steps, func(next func()) { be.GPU().Submit(b, next) })
	}
	tr, _ := alg.(Transformable)
	if cfg.Coalesce && tr != nil {
		b := atLevel(tr.PermuteForGPU(L, 0, TasksAtLevel(a, L)), L)
		steps = append(steps, func(next func()) { be.GPU().Submit(b, next) })
	}
	steps = append(steps, func(next func()) {
		be.GPU().Submit(atLevel(alg.GPUBaseBatch(0, TasksAtLevel(a, L)), L), next)
	})
	for l := L - 1; l >= 0; l-- {
		l := l
		steps = append(steps, func(next func()) {
			be.GPU().Submit(atLevel(alg.GPUCombineBatch(l, 0, TasksAtLevel(a, l)), l), next)
		})
	}
	if cfg.Coalesce && tr != nil {
		steps = append(steps, func(next func()) {
			be.GPU().Submit(tr.PermuteBack(0, 0, 1), next)
		})
	}
	rep := Report{Algorithm: alg.Name(), Strategy: "gpu-only"}
	steps = append(steps, func(next func()) { rep.GPUPortionSeconds = be.Now() - devStart; next() })
	steps = append(steps, func(next func()) { be.TransferToCPU(bytes, next) })

	done := make(chan struct{})
	var canceled bool
	runSeqCtx(ctx, steps, func(c bool) { canceled = c; close(done) })
	awaitChain(be, done)
	return rep, settle(ctx, be, &cfg, alg, &rep, start, canceled)
}
