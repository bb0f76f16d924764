package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	hybriddc "repro"
	"repro/internal/mempool"
)

// span is one interval the benchmark timed around a call into a layer.
// Times are wall seconds since the tracer started.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Class  string  `json:"class,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the benchmark's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records [start, end) and returns the span's id (0 on a nil tracer).
func (t *tracer) add(name string, parent uint64, j job, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: j.Index, Class: j.class(),
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return id
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// byClass groups the named spans' lengths by job class.
func (t *tracer) byClass(name string) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Class] = append(out[s.Class], s.dur())
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the linearly interpolated q-quantile of xs (0 if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the sample at the highest percentile that still has at least 10
// samples beyond it. With fewer than 11 samples it is the maximum.
type tail struct {
	value      float64
	percentile float64
	samples    int
	beyond     int
}

func tailOf(xs []float64) tail {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	if n < 11 {
		return tail{value: s[n-1], percentile: 100, samples: n}
	}
	k := n - 11
	return tail{value: s[k], percentile: 100 * float64(k+1) / float64(n), samples: n, beyond: n - 1 - k}
}

// classMedians maps each class to the median of its samples.
func classMedians(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = median(v)
	}
	return out
}

// maxRSS reports the process's peak resident set in bytes.
func maxRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) * 1024
	}
	return 0
}

// counters is a snapshot of the process-wide counters a window reads:
// the Go runtime's and the buffer pools'.
type counters struct {
	mem          runtime.MemStats
	poolHits     uint64
	poolMisses   uint64
	poolRetained int64
}

func snapCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	for _, p := range mempool.Stats() {
		for _, cl := range p.Classes {
			c.poolHits += cl.Hits
			c.poolMisses += cl.Misses
		}
	}
	c.poolRetained = mempool.TotalRetainedBytes()
	return c
}

// part is one slice of a window that the headline rates and latencies are
// taken over: a burst (sim-burst), a one-second slice (api-small) or the
// whole window (native-large). The end-to-end metrics are medians over
// parts, so one slice hit by a pause or a noisy neighbour does not move
// them.
type part struct {
	elapsed   float64 // wall seconds
	verified  int
	elements  int64
	latencies []float64 // per verified job, wall seconds
}

// counterDelta sums after minus before over the named registry counters.
func counterDelta(before, after hybriddc.MetricsSnapshot, names ...string) float64 {
	var d float64
	for _, name := range names {
		d += float64(after.Counters[name] - before.Counters[name])
	}
	return d
}

// window is one timed measurement.
type window struct {
	attempted int
	failed    int // failed + rejected + canceled
	verified  int
	parts     []part
	notes     []string // self-describing extras (pool visibility, ...)
}

func (w *window) add(p part) { w.parts = append(w.parts, p) }

// perPart maps f over the parts.
func (w *window) perPart(f func(p part) float64) []float64 {
	out := make([]float64, len(w.parts))
	for i, p := range w.parts {
		out[i] = f(p)
	}
	return out
}

func (w *window) jobsPerS() float64 {
	return median(w.perPart(func(p part) float64 { return float64(p.verified) / p.elapsed }))
}

func (w *window) elementsPerS() float64 {
	return median(w.perPart(func(p part) float64 { return float64(p.elements) / p.elapsed }))
}

func (w *window) latencyP50() float64 {
	return median(w.perPart(func(p part) float64 { return median(p.latencies) }))
}

// latencyTail is the median over parts of each part's tail, and the tail
// of the part that gave it (for the report).
func (w *window) latencyTail() (float64, tail) {
	tails := make([]tail, len(w.parts))
	vals := make([]float64, len(w.parts))
	for i, p := range w.parts {
		tails[i] = tailOf(p.latencies)
		vals[i] = tails[i].value
	}
	m := median(vals)
	var near tail
	for _, t := range tails {
		if near.samples == 0 || math.Abs(t.value-m) < math.Abs(near.value-m) {
			near = t
		}
	}
	return m, near
}

// slicesOf cuts samples, each a job's completion time (seconds since the
// window start), latency and size, into parts of length slice that lie
// wholly inside [0, d). With d under two slices the window is one part.
func slicesOf(at, lat []float64, elems []int64, d, slice float64) []part {
	if d < 2*slice {
		p := part{elapsed: d}
		for i := range at {
			p.verified++
			p.elements += elems[i]
			p.latencies = append(p.latencies, lat[i])
			p.elapsed = math.Max(p.elapsed, at[i])
		}
		return []part{p}
	}
	n := int(d / slice)
	parts := make([]part, n)
	for i := range parts {
		parts[i].elapsed = slice
	}
	for i, t := range at {
		k := int(t / slice)
		if k >= n {
			continue
		}
		parts[k].verified++
		parts[k].elements += elems[i]
		parts[k].latencies = append(parts[k].latencies, lat[i])
	}
	return parts
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// commonLayers fills the per-layer metrics every workload reports from the
// counters around its traced window.
func commonLayers(lm map[string]float64, w *window, before, after counters) {
	jobs := float64(w.attempted)
	lm["mempool.hit_ratio"] = ratio(float64(after.poolHits-before.poolHits),
		float64(after.poolHits-before.poolHits+after.poolMisses-before.poolMisses))
	lm["mempool.retained_bytes"] = float64(after.poolRetained)
	lm["go.allocs_per_job"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), jobs)
	lm["go.alloc_bytes_per_job"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), jobs)
	lm["go.gc_pause_s"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e9
	lm["go.heap_inuse_bytes"] = float64(after.mem.HeapInuse)
}

// fmtFloats renders a slice compactly for the self-describing report.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func describeTail(t tail, parts int) string {
	return fmt.Sprintf("latency_tail_s is the median over %d parts of each part's highest percentile with 10 samples beyond it; nearest part: p%.2f of %d samples (%d beyond it)",
		parts, t.percentile, t.samples, t.beyond)
}
