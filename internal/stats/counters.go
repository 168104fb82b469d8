package stats

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// TrafficCounters aggregates the I/O accounting a single device or engine
// component exposes: bytes and operation counts, split by direction and by
// foreground/background origin.
type TrafficCounters struct {
	ReadBytes    Counter
	WriteBytes   Counter
	ReadOps      Counter
	WriteOps     Counter
	BgReadBytes  Counter
	BgWriteBytes Counter
	BgReadOps    Counter
	BgWriteOps   Counter
}

// Snapshot is an immutable copy of TrafficCounters at one instant.
type Snapshot struct {
	ReadBytes, WriteBytes, ReadOps, WriteOps         uint64
	BgReadBytes, BgWriteBytes, BgReadOps, BgWriteOps uint64
}

// Snapshot copies the current counter values.
func (t *TrafficCounters) Snapshot() Snapshot {
	return Snapshot{
		ReadBytes: t.ReadBytes.Load(), WriteBytes: t.WriteBytes.Load(),
		ReadOps: t.ReadOps.Load(), WriteOps: t.WriteOps.Load(),
		BgReadBytes: t.BgReadBytes.Load(), BgWriteBytes: t.BgWriteBytes.Load(),
		BgReadOps: t.BgReadOps.Load(), BgWriteOps: t.BgWriteOps.Load(),
	}
}

// Sub returns the component-wise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		ReadBytes: s.ReadBytes - o.ReadBytes, WriteBytes: s.WriteBytes - o.WriteBytes,
		ReadOps: s.ReadOps - o.ReadOps, WriteOps: s.WriteOps - o.WriteOps,
		BgReadBytes: s.BgReadBytes - o.BgReadBytes, BgWriteBytes: s.BgWriteBytes - o.BgWriteBytes,
		BgReadOps: s.BgReadOps - o.BgReadOps, BgWriteOps: s.BgWriteOps - o.BgWriteOps,
	}
}

// TotalBytes returns all bytes moved, foreground plus background.
func (s Snapshot) TotalBytes() uint64 {
	return s.ReadBytes + s.WriteBytes
}

func (s Snapshot) String() string {
	return fmt.Sprintf("read=%s(%d ops) write=%s(%d ops) bgRead=%s bgWrite=%s",
		FormatBytes(s.ReadBytes), s.ReadOps, FormatBytes(s.WriteBytes), s.WriteOps,
		FormatBytes(s.BgReadBytes), FormatBytes(s.BgWriteBytes))
}

// FormatBytes renders n in human units (KiB/MiB/GiB).
func FormatBytes(n uint64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.2fGiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.2fMiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.2fKiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BandwidthSample is one interval of observed device throughput.
type BandwidthSample struct {
	At         time.Time
	ReadBps    float64
	WriteBps   float64
	BgReadBps  float64
	BgWriteBps float64
}

// BandwidthSampler periodically snapshots a TrafficCounters and converts
// deltas into bandwidth samples, mimicking iostat over the simulated device.
type BandwidthSampler struct {
	mu      sync.Mutex
	src     *TrafficCounters
	last    Snapshot
	lastAt  time.Time
	samples []BandwidthSample
	stop    chan struct{}
	done    chan struct{}
}

// NewBandwidthSampler begins sampling src every interval until Stop.
func NewBandwidthSampler(src *TrafficCounters, interval time.Duration) *BandwidthSampler {
	s := &BandwidthSampler{
		src:    src,
		last:   src.Snapshot(),
		lastAt: time.Now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go s.run(interval)
	return s
}

func (s *BandwidthSampler) run(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.sampleAt(now)
		}
	}
}

func (s *BandwidthSampler) sampleAt(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.src.Snapshot()
	dt := now.Sub(s.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	d := cur.Sub(s.last)
	s.samples = append(s.samples, BandwidthSample{
		At:         now,
		ReadBps:    float64(d.ReadBytes) / dt,
		WriteBps:   float64(d.WriteBytes) / dt,
		BgReadBps:  float64(d.BgReadBytes) / dt,
		BgWriteBps: float64(d.BgWriteBytes) / dt,
	})
	s.last, s.lastAt = cur, now
}

// Stop halts sampling and returns all collected samples.
func (s *BandwidthSampler) Stop() []BandwidthSample {
	close(s.stop)
	<-s.done
	s.sampleAt(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// MeanBandwidth averages the samples, skipping fully idle intervals so warmup
// and drain phases don't dilute the estimate.
func MeanBandwidth(samples []BandwidthSample) (readBps, writeBps float64) {
	var n int
	for _, s := range samples {
		if s.ReadBps == 0 && s.WriteBps == 0 {
			continue
		}
		readBps += s.ReadBps
		writeBps += s.WriteBps
		n++
	}
	if n > 0 {
		readBps /= float64(n)
		writeBps /= float64(n)
	}
	return readBps, writeBps
}
