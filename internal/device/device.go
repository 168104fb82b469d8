package device

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/stats"
)

// ErrNoSpace is returned when an allocation would exceed the device capacity.
var ErrNoSpace = errors.New("device: out of space")

// ErrClosed is returned by operations on a closed device or file.
var ErrClosed = errors.New("device: closed")

// Op qualifies a single I/O for costing and accounting.
type Op struct {
	// Background marks I/O issued by compaction, migration, or flush jobs
	// rather than a client operation. Background traffic is tallied
	// separately; it is what the paper's Figure 11 measures.
	Background bool
	// Sequential marks streaming multi-page I/O eligible for the profile's
	// sequential latency discount (SSTable writes, compaction reads).
	Sequential bool
}

// Fg and Bg are the common Op shorthands.
var (
	Fg    = Op{}
	FgSeq = Op{Sequential: true}
	Bg    = Op{Background: true}
	BgSeq = Op{Background: true, Sequential: true}
)

// Device is a simulated SSD: a capacity ledger, a real-time performance
// model, an I/O accountant, and a flat namespace of Files.
type Device struct {
	profile  Profile
	throttle *throttle
	counters stats.TrafficCounters
	faults   atomic.Pointer[faultState]

	// usedPages and closed are atomic so the capacity ledger and watermark
	// checks (UsedFraction on every foreground write) never contend with
	// namespace operations; mu guards only the files map.
	usedPages atomic.Int64
	maxPages  int64 // 0 = unbounded
	closed    atomic.Bool

	mu    sync.Mutex
	files map[string]*File
}

// New creates a device with the given profile.
func New(p Profile) *Device {
	if p.PageSize <= 0 {
		p.PageSize = 4096
	}
	if p.SectorSize <= 0 {
		p.SectorSize = 512
	}
	if p.SeqDiscount < 1 {
		p.SeqDiscount = 1
	}
	d := &Device{
		profile:  p,
		throttle: newThrottle(p.Channels),
		files:    make(map[string]*File),
	}
	if p.Capacity > 0 {
		d.maxPages = (p.Capacity + int64(p.PageSize) - 1) / int64(p.PageSize)
	}
	return d
}

// Profile returns the device's configuration.
func (d *Device) Profile() Profile { return d.profile }

// PageSize returns the device's atomic I/O unit in bytes.
func (d *Device) PageSize() int { return d.profile.PageSize }

// Counters exposes the device's traffic accounting.
func (d *Device) Counters() *stats.TrafficCounters { return &d.counters }

// Capacity returns the configured capacity in bytes (0 = unbounded).
func (d *Device) Capacity() int64 { return d.profile.Capacity }

// Used returns the currently allocated bytes. A single atomic load: safe on
// the per-op watermark-check path.
func (d *Device) Used() int64 {
	return d.usedPages.Load() * int64(d.profile.PageSize)
}

// UsedFraction returns Used/Capacity, or 0 for unbounded devices.
func (d *Device) UsedFraction() float64 {
	if d.profile.Capacity <= 0 {
		return 0
	}
	return float64(d.Used()) / float64(d.profile.Capacity)
}

// Utilization returns the fraction of device service capacity consumed since
// creation (or the last ResetUtilization): booked busy time divided by
// wall time × channels. This is the metric behind Figures 2a and 3a.
func (d *Device) Utilization() float64 {
	busy, elapsed, channels := d.throttle.busyTime()
	if elapsed <= 0 {
		return 0
	}
	return float64(busy) / (float64(elapsed) * float64(channels))
}

// ResetUtilization restarts the utilisation measurement window.
func (d *Device) ResetUtilization() { d.throttle.resetBusy() }

// allocPages reserves n pages, failing with ErrNoSpace past capacity. The
// bounded case is a CAS loop so concurrent allocations can never oversubscribe
// the ledger.
func (d *Device) allocPages(n int64) error {
	if n < 0 {
		return fmt.Errorf("device: negative allocation %d", n)
	}
	if d.closed.Load() {
		return ErrClosed
	}
	if d.maxPages <= 0 {
		d.usedPages.Add(n)
		return nil
	}
	for {
		used := d.usedPages.Load()
		if used+n > d.maxPages {
			return fmt.Errorf("%w (%s: %d used + %d requested of %d pages)",
				ErrNoSpace, d.profile.Name, used, n, d.maxPages)
		}
		if d.usedPages.CompareAndSwap(used, used+n) {
			return nil
		}
	}
}

// freePages returns n pages to the ledger.
func (d *Device) freePages(n int64) {
	if d.usedPages.Add(-n) < 0 {
		// Clamp: double-free accounting bugs shouldn't manufacture capacity.
		for {
			used := d.usedPages.Load()
			if used >= 0 || d.usedPages.CompareAndSwap(used, 0) {
				return
			}
		}
	}
}

// chargeRead books the cost of reading pages bytes and blocks until the
// modelled completion time. bytes must already be page-rounded.
func (d *Device) chargeRead(bytes int64, pagesTouched int64, op Op) {
	d.counters.ReadBytes.Add(uint64(bytes))
	d.counters.ReadOps.Inc()
	if op.Background {
		d.counters.BgReadBytes.Add(uint64(bytes))
		d.counters.BgReadOps.Inc()
	}
	d.block(d.profile.ReadLatency, d.profile.ReadBandwidth, bytes, pagesTouched, op)
}

// chargeWrite books the cost of writing pages bytes and blocks accordingly.
func (d *Device) chargeWrite(bytes int64, pagesTouched int64, op Op) {
	d.counters.WriteBytes.Add(uint64(bytes))
	d.counters.WriteOps.Inc()
	if op.Background {
		d.counters.BgWriteBytes.Add(uint64(bytes))
		d.counters.BgWriteOps.Inc()
	}
	d.block(d.profile.WriteLatency, d.profile.WriteBandwidth, bytes, pagesTouched, op)
}

func (d *Device) block(latency time.Duration, bandwidth int64, bytes, pagesTouched int64, op Op) {
	if !d.profile.throttled() || bytes == 0 {
		return
	}
	var service time.Duration
	if op.Sequential {
		// One command setup amortised across the streamed pages.
		service = latency / time.Duration(d.profile.SeqDiscount)
	} else {
		// Every discontiguous page is its own command.
		service = latency * time.Duration(max64(pagesTouched, 1))
	}
	if bandwidth > 0 {
		service += time.Duration(float64(bytes) / float64(bandwidth) * float64(time.Second))
	}
	waitUntil(d.throttle.reserve(service))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Create makes a new empty file. It fails if the name exists.
func (d *Device) Create(name string) (*File, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("device: file %q exists", name)
	}
	f := &File{dev: d, name: name, buf: newPageTable(d.profile.PageSize), dirtyLo: -1}
	d.files[name] = f
	return f, nil
}

// Open returns an existing file by name.
func (d *Device) Open(name string) (*File, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("device: file %q not found", name)
	}
	return f, nil
}

// Remove deletes a file and releases its pages.
func (d *Device) Remove(name string) error {
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("device: file %q not found", name)
	}
	delete(d.files, name)
	d.mu.Unlock()
	f.release()
	return nil
}

// List returns the names of all files, sorted.
func (d *Device) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close marks the device closed. Outstanding files remain readable so that
// shutdown paths can drain, but new allocation fails.
func (d *Device) Close() {
	d.closed.Store(true)
}

// Held returns the bytes its files' pages store in memory: their non-zero
// granules, a running count per file. A punched page stores none, and a
// held one only its non-zero granules, so this stays at or below Used,
// however far the files span.
func (d *Device) Held() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, f := range d.files {
		f.mu.RLock()
		n += f.buf.stored
		f.mu.RUnlock()
	}
	return n
}
