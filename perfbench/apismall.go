package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hybriddc "repro"
)

// apiClients is how many closed-loop clients drive api-small, each on its
// own keep-alive connection.
const apiClients = 2

// apiSmall is the remote-serving path: the stack `hpuserve --api` builds
// (native backend, metrics and recorder on) on a loopback listener, driven
// by closed-loop clients.
type apiSmall struct {
	o       options
	jobs    []job
	be      *hybriddc.Native
	srv     *hybriddc.Server
	api     *hybriddc.APIServer
	reg     *hybriddc.Metrics
	served  chan error
	clients [apiClients]apiConn
	samples []apiSample // the last window's

	// before and after bracket the last traced window.
	before, after           hybriddc.MetricsSnapshot
	statsBefore, statsAfter hybriddc.ServerStats
}

// apiConn is one client's connection: a JSON and a binary client over one
// single-connection transport.
type apiConn struct {
	transport *http.Transport
	json, bin *hybriddc.APIClient
}

type apiSample struct {
	at      float64 // completion, seconds since the window started
	latency float64
	n       int64
	binary  bool
	picked  string // auto jobs: the strategy the server chose
}

func (a *apiSmall) setup() error {
	a.reg = hybriddc.NewMetrics()
	be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: runtime.GOMAXPROCS(0), DeviceLanes: 64})
	if err != nil {
		return err
	}
	a.be = be
	rec := hybriddc.NewTraceRecorderLimit(1 << 15)
	if a.srv, err = hybriddc.NewServerPool([]hybriddc.Backend{be},
		hybriddc.WithQueueDepth(32),
		hybriddc.WithMaxInFlight(8),
		hybriddc.WithServerMetrics(a.reg),
		hybriddc.WithServerRecorder(rec)); err != nil {
		return err
	}
	if a.api, err = hybriddc.NewAPIServer(a.srv,
		hybriddc.WithAPIMetrics(a.reg),
		hybriddc.WithAPIRecorder(rec),
		hybriddc.WithAPIEventPoll(5*time.Millisecond)); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	a.served = make(chan error, 1)
	go func() { a.served <- a.api.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := range a.clients {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		hc := &http.Client{Transport: t}
		a.clients[i] = apiConn{transport: t,
			json: hybriddc.NewAPIClient(base, hybriddc.WithAPIHTTPClient(hc)),
			bin:  hybriddc.NewAPIClient(base, hybriddc.WithAPIHTTPClient(hc), hybriddc.WithAPIBinary())}
	}
	// Warm-up: open both connections, fill the small pool classes, and
	// run enough jobs that the API's retained-job window (4096 settled
	// jobs by default) is full and auto's calibration has settled, so the
	// timed window sees the steady state rather than its approach.
	// Shrunk self-test runs warm up with one round.
	warm := a.round()
	if a.o.shrink == 0 {
		warm += 4096
	}
	_, err = a.drive(0, warm, nil)
	return err
}

// round is the length of one round of the job list.
func (a *apiSmall) round() int {
	sp, _ := specFor(a.o.workload, a.o.shrink)
	return len(sp.cells)
}

// one submits a job over the wire, waits for its result and verifies it.
func (a *apiSmall) one(c apiConn, j job, tr *tracer) (apiSample, error) {
	req := hybriddc.APIJobRequest{Algorithm: j.Alg, Data: j.in.data, Strategy: j.Strategy}
	if j.Strategy == stratAdvanced {
		p, err := planFor(j)
		if err != nil {
			return apiSample{}, err
		}
		req.Alpha, req.Y = p.alpha, p.y
	}
	cli := c.json
	if j.Binary {
		cli = c.bin
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	h, err := cli.Submit(ctx, req)
	t1 := time.Now()
	if err != nil {
		return apiSample{}, err
	}
	res, err := h.Wait(ctx)
	t2 := time.Now()
	if err != nil {
		return apiSample{}, err
	}
	if err := a.o.check(j, output{sorted: res.Sorted, scan: res.Scan, sum: res.Sum}); err != nil {
		return apiSample{}, err
	}
	t3 := time.Now()
	root := tr.add("api.job", 0, j, t0, t3)
	tr.add("api.request", root, j, t0, t2)
	tr.add("api.Client.Submit", root, j, t0, t1)
	tr.add("api.Handle.Wait", root, j, t1, t2)
	return apiSample{latency: t3.Sub(t0).Seconds(), binary: j.Binary, picked: res.Report.ChosenStrategy}, nil
}

// drive runs the closed loop: every client takes the next job of the list
// (cycling) and waits for its result before taking another, until d has
// passed or, when d is 0, until count jobs were taken.
func (a *apiSmall) drive(d time.Duration, count int, tr *tracer) (*window, error) {
	w := &window{}
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	a.samples = nil
	for c := range a.clients {
		wg.Add(1)
		go func(conn apiConn) {
			defer wg.Done()
			var mine []apiSample
			var attempted, failed int
			for {
				if d > 0 && time.Since(start) >= d {
					break
				}
				i := int(next.Add(1) - 1)
				if d == 0 && i >= count {
					break
				}
				j := a.jobs[i%len(a.jobs)]
				attempted++
				s, err := a.one(conn, j, tr)
				s.at, s.n = time.Since(start).Seconds(), int64(j.n())
				var bad *mismatch
				if errors.As(err, &bad) {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					break
				}
				if err != nil {
					failed++
					continue
				}
				mine = append(mine, s)
			}
			mu.Lock()
			w.attempted += attempted
			w.failed += failed
			a.samples = append(a.samples, mine...)
			mu.Unlock()
		}(a.clients[c])
	}
	wg.Wait()
	w.verified = len(a.samples)
	at := make([]float64, len(a.samples))
	lat := make([]float64, len(a.samples))
	elems := make([]int64, len(a.samples))
	for i, s := range a.samples {
		at[i], lat[i], elems[i] = s.at, s.latency, s.n
	}
	var rates []float64
	for _, p := range slicesOf(at, lat, elems, d.Seconds(), 1) {
		w.add(p)
		rates = append(rates, float64(p.verified)/p.elapsed)
	}
	w.notes = append(w.notes, "# jobs/s per one-second slice: "+fmtFloats(rates))
	return w, firstErr
}

func (a *apiSmall) measure(d time.Duration, tr *tracer) (*window, error) {
	if tr != nil {
		a.before, a.statsBefore = a.reg.Snapshot(), a.srv.Stats()
		defer func() { a.after, a.statsAfter = a.reg.Snapshot(), a.srv.Stats() }()
	}
	return a.drive(d, 0, tr)
}

// makespans serves the first round's inputs as auto bursts on the
// simulated pool: what the modeled HPU would take for this mix.
func (a *apiSmall) makespans() ([]float64, error) {
	return replayMakespans(a.o, a.jobs[:a.round()], 15, 0)
}

func (a *apiSmall) layers(tr *tracer, w *window, lm map[string]float64) error {
	submit := tr.durations("api.Client.Submit")
	lm["api.submit_s.p50"] = median(submit)
	lm["api.submit_s.p99"] = quantile(submit, 0.99)
	lm["api.wait_s.p50"] = median(tr.durations("api.Handle.Wait"))
	var bin, js []float64
	picks := map[string]float64{}
	autoJobs := 0.0
	for _, s := range a.samples {
		if s.binary {
			bin = append(bin, s.latency)
		} else {
			js = append(js, s.latency)
		}
		if s.picked != "" {
			picks[s.picked]++
			autoJobs++
		}
	}
	lm["api.binary.latency_p50_s"] = median(bin)
	lm["api.json.latency_p50_s"] = median(js)
	for _, st := range fixedStrategies {
		lm["autotune.picks."+st] = ratio(picks[st], autoJobs)
	}
	jobs := float64(w.attempted)
	delta := func(names ...string) float64 { return counterDelta(a.before, a.after, names...) }
	lm["api.bytes_per_job"] = ratio(delta("api_bytes_in_total", "api_bytes_out_total"), jobs)
	lm["core.transfer_bytes_per_job"] = ratio(delta("core_transfer_to_gpu_bytes", "core_transfer_to_cpu_bytes"), jobs)

	st := a.statsAfter
	lm["serve.queue_wait_s"] = st.AvgQueueWaitSeconds
	lm["serve.fusion_ratio"] = ratio(float64(st.FusedJobs-a.statsBefore.FusedJobs),
		float64(st.Completed+st.Failed+st.Canceled-a.statsBefore.Completed-a.statsBefore.Failed-a.statsBefore.Canceled))
	var placements []float64
	for _, d := range st.Devices {
		placements = append(placements, float64(d.Placements))
	}
	lm["serve.placement_skew"] = skew(placements)
	lm["serve.rejected"] = float64(st.Rejected - a.statsBefore.Rejected)
	lm["serve.retries"] = float64(st.Retries - a.statsBefore.Retries)

	// Layered replay: each fixed-strategy class in-process through
	// Server.Submit, and through its executor on the same backend.
	rt, err := layeredReplay(a.o, a.srv, a.be, firstPerClass(a.jobs), 5, tr)
	if err != nil {
		return err
	}
	var sub, settle []float64
	for _, v := range rt.submit {
		sub = append(sub, v...)
	}
	for _, v := range rt.settle {
		settle = append(settle, v...)
	}
	lm["serve.submit_s.p50"] = median(sub)
	lm["serve.settle_s.p50"] = median(settle)
	lm["serve.settle_s.p99"] = quantile(settle, 0.99)
	settleMed := classMedians(rt.settle)
	lm["serve.self_s.p50"] = selfTime(settleMed, classMedians(rt.exec))
	lm["api.self_s.p50"] = selfTime(classMedians(tr.byClass("api.request")), settleMed)
	return nil
}

func (a *apiSmall) close() error {
	var errs []error
	if a.served != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := a.api.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-a.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, c := range a.clients {
		if c.transport != nil {
			c.transport.CloseIdleConnections()
		}
	}
	if a.srv != nil {
		if err := a.srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if a.be != nil {
		if err := a.be.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("api-small shutdown: %w", err)
	}
	return nil
}
