package core

import (
	"errors"
	"testing"
)

// capableBackend is a fakeBackend exposing every capability the executors
// and the serving layer probe for. (The fault injector's StallDevice probe
// targets the device directly; internal/faults tests it through hooks.)
type capableBackend struct {
	*fakeBackend
	segs  SegmentCache
	fault error
	probe error
}

func (c *capableBackend) Autonomous() bool                  { return true }
func (c *capableBackend) Closed() bool                      { return true }
func (c *capableBackend) Fault() error                      { return c.fault }
func (c *capableBackend) ProbeDevice() error                { return c.probe }
func (c *capableBackend) AllocSegment(bytes int64) *Segment { return c.segs.AllocSegment(bytes) }

// TestInterposerForwardsCapabilities pins the forwarding contract: with 0
// to 3 hook sets attached, every capability of the device stays reachable
// through the backend the executors drive, and a hook set's fault takes
// precedence over the device's own.
func TestInterposerForwardsCapabilities(t *testing.T) {
	observer := Hooks{
		Batch:    func(bool, Batch, float64, float64) {},
		Transfer: func(bool, int64, float64, float64) {},
	}
	for n := 0; n <= 3; n++ {
		dev := &capableBackend{fakeBackend: newFakeBackend(true),
			fault: errors.New("device fault"), probe: errors.New("probe failed")}
		cfg := NewRunConfig()
		for i := 0; i < n; i++ {
			cfg.Hooks = append(cfg.Hooks, observer)
		}
		be := instrument(dev, &cfg)
		if !autonomous(be) {
			t.Errorf("%d hook sets: Autonomous not forwarded", n)
		}
		if checkOpen(be) == nil {
			t.Errorf("%d hook sets: Closed not forwarded", n)
		}
		if err := deviceFault(be); err != dev.fault {
			t.Errorf("%d hook sets: Fault = %v, want the device's", n, err)
		}
		if p, ok := be.(DeviceProber); !ok || p.ProbeDevice() != dev.probe {
			t.Errorf("%d hook sets: ProbeDevice not forwarded", n)
		}
		sa, ok := be.(SegmentAllocator)
		if !ok {
			t.Fatalf("%d hook sets: SegmentAllocator not forwarded", n)
		}
		sa.AllocSegment(100).Release()
		if st := dev.segs.Stats(); st.Allocs != 1 {
			t.Errorf("%d hook sets: device segment stats %+v, want one alloc", n, st)
		}
		hookErr := errors.New("hook fault")
		cfg.Hooks = append(cfg.Hooks, Hooks{Fault: func() error { return hookErr }})
		if err := deviceFault(instrument(dev, &cfg)); err != hookErr {
			t.Errorf("%d hook sets: Fault = %v, want the hook's to take precedence", n, err)
		}
	}
}
