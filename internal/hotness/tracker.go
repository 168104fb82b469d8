// Package hotness implements §3.3: object-popularity tracking with a
// cascading discriminator. Each partition owns a Tracker. Every client read
// or update inserts the key into the currently open window; when the window
// has absorbed its design capacity it is sealed and pushed onto a FIFO
// cascade of at most MaxFilters sealed windows. A key is hot iff it appears
// in at least HotThreshold *consecutive* sealed windows — i.e. its access
// interval stayed below the window size for several windows in a row, which
// (Fig. 6a) strongly predicts the next access will come soon as well.
//
// Each window is a set of bloom filters sized for WindowCapacity keys, and
// "appears in a window" is filter membership. (A second, fixed-memory
// representation existed until commit 2d24bae; DESIGN.md records what it
// measured and why it went.)
//
// The tracker sits on the foreground path of every Put/Get/Delete, so it is
// built to scale with concurrent clients: keys are hashed exactly once
// (stripe choice and the bloom probes derive from the same 64-bit hash),
// the open window is striped by key hash (each stripe owns independently
// locked state), sealed windows are immutable and published through an
// atomic.Pointer snapshot, and sealing is single-writer. Record touches exactly one stripe mutex; IsHot and the
// hotness half of Record take no locks at all.
package hotness

import (
	"sync"
	"sync/atomic"

	"hyperdb/internal/bloom"
)

// Config sizes a Tracker.
type Config struct {
	// WindowCapacity is the number of distinct keys a window absorbs before
	// sealing. The paper sets it to the number of objects the partition's
	// NVMe share can store.
	WindowCapacity int
	// BitsPerKey sizes each bloom filter (paper: 10, <1% false positives).
	BitsPerKey int
	// MaxFilters bounds the sealed cascade (paper: 4).
	MaxFilters int
	// HotThreshold is the consecutive-window count that classifies a key as
	// hot (paper: 3).
	HotThreshold int
	// Stripes overrides the open window's stripe count. 0 derives it from
	// WindowCapacity (each stripe's filter share must stay large enough to
	// hold its accuracy under hash imbalance). Capped at 16.
	Stripes int
}

// Fill applies the paper's defaults to unset fields.
func (c *Config) Fill() {
	if c.WindowCapacity <= 0 {
		c.WindowCapacity = 1 << 16
	}
	if c.BitsPerKey <= 0 {
		c.BitsPerKey = 10
	}
	if c.MaxFilters <= 0 {
		c.MaxFilters = 4
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 3
	}
	if c.HotThreshold > c.MaxFilters {
		c.HotThreshold = c.MaxFilters
	}
	if c.Stripes <= 0 {
		// Keep every stripe's expected share large enough that the
		// per-stripe filter stays accurate under hash imbalance; tiny
		// (test-sized) windows degenerate to a single stripe.
		c.Stripes = min(max(c.WindowCapacity/512, 1), 16)
	}
}

// stripe is one independently locked slice of the open window.
type stripe struct {
	mu   sync.Mutex
	open *bloom.Filter // the open filter

	// Discriminator-health counters (striped so the shared-counter
	// contention stays off the hot path; Stats sums them).
	records atomic.Uint64
	hotHits atomic.Uint64
}

// window is one sealed discriminator window: one filter per stripe, frozen
// at rotation. Windows are immutable after sealing, so readers need no
// locks.
type window []*bloom.Filter

// Tracker is one partition's cascading discriminator. Safe for concurrent
// use: Record takes one stripe mutex, IsHot takes none.
type Tracker struct {
	cfg       Config
	stripeCap int   // distinct-key capacity of each stripe's filter
	perWindow int64 // memory footprint of one window's filters

	stripes   []stripe
	occupancy atomic.Int64 // distinct keys in the open window
	seals     atomic.Uint64

	sealMu  sync.Mutex               // serialises window rotation
	cascade atomic.Pointer[[]window] // sealed windows, oldest first
}

// NewTracker returns a tracker with cfg (zero fields take paper defaults).
func NewTracker(cfg Config) *Tracker {
	cfg.Fill()
	t := &Tracker{
		cfg:     cfg,
		stripes: make([]stripe, cfg.Stripes),
	}
	// 25% slack absorbs hash imbalance across stripes without inflating
	// the false-positive rate of the busier stripes.
	per := (cfg.WindowCapacity + cfg.Stripes - 1) / cfg.Stripes
	per += per / 4
	t.stripeCap = per
	for i := range t.stripes {
		t.stripes[i].open = bloom.New(per, cfg.BitsPerKey)
		t.perWindow += t.stripes[i].open.SizeBytes()
	}
	return t
}

// stripeIndex maps the 64-bit key hash to a stripe (mixed away from the
// low/high halves the filter probes consume).
func (t *Tracker) stripeIndex(h uint64) int {
	if len(t.stripes) == 1 {
		return 0
	}
	return int((h >> 17) % uint64(len(t.stripes)))
}

// record inserts the hashed key into stripe si's open window and reports
// the occupancy delta the caller must publish: 1 for a distinct insert.
func (t *Tracker) record(si int, h uint64) int64 {
	st := &t.stripes[si]
	st.records.Add(1)
	st.mu.Lock()
	changed := st.open.AddHash(h)
	st.mu.Unlock()
	if changed {
		return 1
	}
	return 0
}

// Record notes one access to key and returns whether the key is now
// classified hot. This is the single call sites make on every read/update:
// RecordBatch of one key.
func (t *Tracker) Record(key []byte) bool {
	hs := [1]uint64{bloom.Hash64(key)}
	var hot [1]bool
	t.recordHashes(hs[:], hot[:])
	return hot[0]
}

// RecordBatch records every key and fills hot[i] with key i's resulting
// classification. Each key is scanned exactly once: stripe choice, window
// insert and the cascade check all share one 64-bit hash.
func (t *Tracker) RecordBatch(keys [][]byte, hot []bool) {
	var arr [64]uint64
	hs := arr[:0]
	if len(keys) > len(arr) {
		hs = make([]uint64, 0, len(keys))
	}
	for _, k := range keys {
		hs = append(hs, bloom.Hash64(k))
	}
	t.recordHashes(hs, hot)
}

// recordHashes is the body Record and RecordBatch share: insert every hashed
// key into the open window, publish the occupancy once and check for a seal
// once, then classify each key.
func (t *Tracker) recordHashes(hs []uint64, hot []bool) {
	var delta int64
	for _, h := range hs {
		delta += t.record(t.stripeIndex(h), h)
	}
	if delta != 0 && t.occupancy.Add(delta) >= int64(t.cfg.WindowCapacity) {
		t.seal()
	}
	for i, h := range hs {
		si := t.stripeIndex(h)
		hot[i] = t.isHotHash(si, h)
		if hot[i] {
			t.stripes[si].hotHits.Add(1)
		}
	}
}

// seal rotates the open window onto the cascade. Single-writer: concurrent
// callers queue on sealMu and all but the first observe the reset counter
// and leave. Stripe state collected under their own locks is immutable
// from then on, which is what lets readers scan the cascade lock-free.
func (t *Tracker) seal() {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	if t.occupancy.Load() < int64(t.cfg.WindowCapacity) {
		return // another sealer already rotated this window
	}
	w := make(window, len(t.stripes))
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		w[i] = st.open
		st.open = bloom.New(t.stripeCap, t.cfg.BitsPerKey)
		st.mu.Unlock()
	}
	t.occupancy.Store(0)
	var ws []window
	if old := t.cascade.Load(); old != nil {
		ws = append(ws, *old...)
	}
	ws = append(ws, w)
	if len(ws) > t.cfg.MaxFilters {
		ws = ws[len(ws)-t.cfg.MaxFilters:]
	}
	t.cascade.Store(&ws)
	t.seals.Add(1)
}

// IsHot classifies key without recording an access. Lock-free.
func (t *Tracker) IsHot(key []byte) bool {
	h := bloom.Hash64(key)
	return t.isHotHash(t.stripeIndex(h), h)
}

// isHotHash scans the sealed cascade newest→oldest for a run of consecutive
// hits of at least HotThreshold, against an atomic snapshot.
func (t *Tracker) isHotHash(si int, h uint64) bool {
	c := t.cascade.Load()
	if c == nil {
		return false
	}
	ws := *c
	run := 0
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i][si].ContainsHash(h) {
			run++
			if run >= t.cfg.HotThreshold {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// SealedWindows returns how many windows have ever been sealed; experiments
// use it to confirm window turnover.
func (t *Tracker) SealedWindows() uint64 { return t.seals.Load() }

// CascadeDepth returns the current number of sealed windows (≤ MaxFilters).
func (t *Tracker) CascadeDepth() int {
	c := t.cascade.Load()
	if c == nil {
		return 0
	}
	return len(*c)
}

// MemoryBytes estimates the tracker's current footprint: sealed windows
// plus the open one.
func (t *Tracker) MemoryBytes() int64 {
	return t.perWindow * int64(t.CascadeDepth()+1)
}

// Stats is a point-in-time discriminator-health snapshot.
type Stats struct {
	Seals        uint64
	CascadeDepth int
	MemoryBytes  int64
	// Records counts keys observed via Record/RecordBatch; HotHits the
	// subset classified hot at record time. Their ratio is the partition's
	// hot-classification rate.
	Records uint64
	HotHits uint64
}

// HotRate is the fraction of recorded accesses classified hot.
func (s Stats) HotRate() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.HotHits) / float64(s.Records)
}

// Stats snapshots the tracker's health counters.
func (t *Tracker) Stats() Stats {
	s := Stats{
		Seals:        t.seals.Load(),
		CascadeDepth: t.CascadeDepth(),
		MemoryBytes:  t.MemoryBytes(),
	}
	for i := range t.stripes {
		s.Records += t.stripes[i].records.Load()
		s.HotHits += t.stripes[i].hotHits.Load()
	}
	return s
}

// Reset drops all state, reopening an empty window.
func (t *Tracker) Reset() {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		st.open = bloom.New(t.stripeCap, t.cfg.BitsPerKey)
		st.mu.Unlock()
	}
	t.occupancy.Store(0)
	t.cascade.Store(nil)
}
