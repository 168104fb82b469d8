// Package lsm implements the capacity-tier LSM tree of all three engines over
// semi-SSTables. One tree owns the refcounted table handles and level sets,
// the level-walking Get, the scan iterator, table builds, crash recovery and
// the per-level traffic ledger (Figure 3b); a compaction policy decides how
// data moves down:
//
//   - Segmented is HyperDB's (§3.2, §3.4). The performance tier acts as L0,
//     so the tree starts at L1. Every level is cut into fixed key-range
//     segments, one table each; each shallower level's segment covers
//     exactly T (the size ratio) contiguous segments below it, which bounds
//     key-range overlap during deep compaction. Migration batches merge into
//     the L1 table owning their segment, and preemptive block compaction
//     pushes overflow downward at block granularity.
//   - Leveled is the classic design the baselines are measured with (§2.1):
//     overlapping L0 tables over sorted runs with exponentially growing
//     budgets; a compaction merges one victim with every overlapping table
//     below and rewrites them all. Its tables are built once, one version
//     per user key, and never appended to.
//
// File names carry each table's coordinates and tables are self-describing,
// so there is no manifest: Open rebuilds the tree from the device listing.
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
	"hyperdb/internal/stats"
)

// Policy selects how a tree compacts.
type Policy int

const (
	// Segmented is HyperDB's segment-aligned semi-SSTable policy.
	Segmented Policy = iota
	// Leveled is the classic leveled policy of the baselines.
	Leveled
)

// Options configures a tree.
type Options struct {
	// Prefix starts every file name of the tree, so trees can share a
	// device: "p0" for HyperDB's partition 0, "rocksish" for a baseline.
	Prefix string
	// Dev holds the tables. Under Place it takes a table whose preferred
	// device filled up mid-build (placement races concurrent compactions).
	Dev *device.Device
	// Place, if set, picks each new table's device by level and estimated
	// size — RocksDB's db_path.
	Place func(level int, size int64) *device.Device
	// FileSize is the target size of one table: a Segmented level's capacity
	// is its segment count × FileSize, a Leveled build cuts its output at it.
	FileSize int64
	// Ratio is T, the level size ratio.
	Ratio int
	// MaxLevels is the depth: L1..L<MaxLevels> under Segmented (default 4),
	// L0..L<MaxLevels-1> under Leveled (default 5, the paper's Fig. 3b).
	MaxLevels int
	// PageCache serves data-block reads.
	PageCache cache.BlockCache
	// Compress picks the block codec per level; reads are mixed-format.
	Compress compress.Policy
	// MetaBackup mirrors the indexes of levels down to mirrorDepth to the
	// performance tier (§3.1).
	MetaBackup *device.Device

	// Segmented only. KeyLo and KeyHi bound the 64-bit key-prefix space
	// (KeyHi = 0: the top of the space); L1 has L1Segments segments, each
	// deeper level Ratio times more. Depth is k, how many levels preemptive
	// compaction chases blocks; a table past TClean dirty is fully
	// compacted; victims are the dirtiest once FileBytes/LiveBytes passes
	// SpaceAmpLimit, else the best overlap score of a power-of-PowerK
	// sample drawn from Seed (paper: 0.5, 1.5, 8).
	KeyLo, KeyHi  uint64
	L1Segments    int
	Depth         int
	TClean        float64
	SpaceAmpLimit float64
	PowerK        int
	Seed          uint64

	// L1Target is a Leveled tree's L1 byte budget; level k's is
	// L1Target × Ratio^(k-1) (default 4 × FileSize).
	L1Target int64
}

func orDefault[T int | int64 | uint64 | float64](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

func (o *Options) fill(p Policy) {
	if o.Ratio <= 1 {
		o.Ratio = 10
	}
	orDefault(&o.FileSize, 2<<20)
	if p == Leveled {
		orDefault(&o.MaxLevels, 5)
		orDefault(&o.L1Target, 4*o.FileSize)
		return
	}
	orDefault(&o.MaxLevels, 4)
	orDefault(&o.L1Segments, 2)
	orDefault(&o.Depth, 2)
	orDefault(&o.TClean, 0.5)
	orDefault(&o.SpaceAmpLimit, 1.5)
	orDefault(&o.PowerK, 8)
	orDefault(&o.KeyHi, math.MaxUint64)
	orDefault(&o.Seed, 0x9E3779B97F4A7C15)
}

// mirrorDepth is the deepest level whose index is mirrored (§3.1):
// compaction planning reads the upper levels' indexes constantly, while the
// deep levels hold ~90% of the data and their indexes would crowd the
// performance tier out of payload space at small key:value ratios.
const mirrorDepth = 2

// Entry is one sorted KV fed to Ingest.
type Entry = semisst.Entry

// table is one installed semi-SSTable, reference-counted: the tree holds a
// reference while it is installed and each reader (get, scan, compaction
// input) one while it reads, so a compaction can delist a table under an
// in-flight read. It keeps no copy of its key bounds: a Segmented table
// changes them in place (Merge, ExtractOverlapping).
type table struct {
	sst  *semisst.Table
	dev  *device.Device
	seg  int // Segmented: the segment within the level; Leveled: 0
	refs atomic.Int32
}

// acquire takes a reader reference under the tree's mu (any mode), so it
// cannot race the final release.
func (tb *table) acquire() { tb.refs.Add(1) }

// release drops a reference; the last one closes the table (its cached
// blocks and index mirror go) and deletes the file.
func (tb *table) release() {
	if tb.refs.Add(-1) == 0 {
		tb.sst.Close()
		tb.dev.Remove(tb.sst.File().Name())
	}
}

// bounds returns the first and last user key of the live blocks; ok is
// false when the table has none.
func (tb *table) bounds() (first, last []byte, ok bool) {
	m := tb.sst.LiveBlockMetas()
	if len(m) == 0 {
		return nil, nil, false
	}
	return m[0].First, m[len(m)-1].Last, true
}

func (tb *table) contains(user []byte) bool {
	first, last, ok := tb.bounds()
	return ok && bytes.Compare(first, user) <= 0 && bytes.Compare(user, last) <= 0
}

// LevelTraffic tallies compaction I/O per level — the Figure 3b breakdown.
// RawBytes/StoredBytes are the uncompressed and on-device sizes of the data
// blocks written at the level: its compression ratio.
type LevelTraffic struct {
	ReadBytes    stats.Counter
	WriteBytes   stats.Counter
	Compactions  stats.Counter
	FullRewrites stats.Counter
	RawBytes     stats.Counter
	StoredBytes  stats.Counter
}

// policy is what a compaction policy adds to the tree: Ingest, Compact,
// idle (no level needs compaction, none is in flight) and recovery's
// same-coordinate rule, settle: from the tables that opened at one
// coordinate, newest generation first, what the level keeps.
type policy interface {
	ingest(entries []Entry, op device.Op) error
	compact(op device.Op) (bool, error)
	idle() bool
	settle(level int, tables []*table) ([]*table, error)
}

// Tree is a capacity-tier LSM: one per HyperDB partition, one per baseline.
type Tree struct {
	opts        Options
	pol         policy
	seg         *segmented // the Segmented policy, nil under Leveled
	top, bottom int        // level numbers: 1..MaxLevels Segmented, 0..MaxLevels-1 Leveled
	gen         atomic.Uint64

	mu      sync.RWMutex
	levels  [][]*table // key-ordered; Leveled L0 in arrival order instead
	traffic []*LevelTraffic
	stallCh chan struct{} // closed and replaced to broadcast an L0 un-stall
}

// Open opens the tree on Dev and the more devices Place may pick — empty on
// empty devices — and returns it with the largest sequence it holds.
func Open(opts Options, p Policy, more ...*device.Device) (*Tree, uint64, error) {
	opts.fill(p)
	if opts.Dev == nil {
		return nil, 0, errors.New("lsm: no device")
	}
	t := &Tree{opts: opts, stallCh: make(chan struct{})}
	if p == Leveled {
		t.pol = &leveled{t: t, rr: make([]int, opts.MaxLevels), busy: make(map[*table]bool), activeOut: make([]bool, opts.MaxLevels+1)}
		t.top, t.bottom = 0, opts.MaxLevels-1
	} else {
		t.seg = &segmented{t: t, rnd: opts.Seed}
		t.pol = t.seg
		t.top, t.bottom = 1, opts.MaxLevels
	}
	t.levels = make([][]*table, t.bottom+1)
	t.traffic = make([]*LevelTraffic, t.bottom+1)
	for i := range t.traffic {
		t.traffic[i] = &LevelTraffic{}
	}
	maxSeq, err := t.recover(append([]*device.Device{opts.Dev}, more...))
	if err != nil {
		return nil, 0, err
	}
	return t, maxSeq, nil
}

// Levels returns the first and last level number.
func (t *Tree) Levels() (top, bottom int) { return t.top, t.bottom }

// Traffic returns level k's compaction counters.
func (t *Tree) Traffic(level int) *LevelTraffic { return t.traffic[level] }

// TableCount returns the number of tables at level k.
func (t *Tree) TableCount(level int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.levels[level])
}

// LevelBytes returns (live, file) byte totals for level k.
func (t *Tree) LevelBytes(level int) (live, file int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levelBytesLocked(level)
}

func (t *Tree) levelBytesLocked(level int) (live, file int64) {
	for _, tb := range t.levels[level] {
		live += tb.sst.LiveBytes()
		file += tb.sst.FileBytes()
	}
	return live, file
}

// spaceAmpLocked returns the §3.4 space amplification: data-block bytes
// including dirty blocks over live data-block bytes (≥ 1); index blocks are
// metadata, not amplification. Caller holds mu.
func (t *Tree) spaceAmpLocked() float64 {
	var live, stale int64
	for _, level := range t.levels {
		for _, tb := range level {
			live += tb.sst.LiveBytes()
			stale += tb.sst.StaleBytes()
		}
	}
	if live == 0 {
		return 1
	}
	return float64(live+stale) / float64(live)
}

// Empty reports whether the tree holds no table; the answer survives a
// reopen.
func (t *Tree) Empty() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, level := range t.levels {
		if len(level) > 0 {
			return false
		}
	}
	return true
}

// Stalled returns nil, or, while writers should stall on L0 debt, a channel
// closed at the next un-stall transition.
func (t *Tree) Stalled() <-chan struct{} {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.levels[0]) < l0Stall {
		return nil
	}
	return t.stallCh
}

// Ingest adds sorted entries at the top of the tree: Segmented merges them
// into the L1 tables owning their segments, Leveled writes new L0 tables.
func (t *Tree) Ingest(entries []Entry, op device.Op) error { return t.pol.ingest(entries, op) }

// Compact runs at most one background compaction step and reports whether
// it did any work. Under Leveled several goroutines may call it at once.
func (t *Tree) Compact(op device.Op) (bool, error) { return t.pol.compact(op) }

// Drain compacts on the caller's goroutine until no level needs compaction
// and none is in flight.
func (t *Tree) Drain() error {
	for {
		did, err := t.Compact(device.Bg)
		switch {
		case err != nil:
			return err
		case !did && t.pol.idle():
			return nil
		case !did: // a background thread holds the remaining work
			time.Sleep(time.Millisecond)
		}
	}
}

// Get returns the newest version of user visible at snapshot seq and its
// sequence, searching levels shallow to deep, each under its own hold of
// mu: data only moves down, and a destination is installed before its
// source lets go, so a lookup cannot fall between the two.
func (t *Tree) Get(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, entrySeq uint64, found bool, err error) {
	var buf [8]*table
	for level := t.top; level <= t.bottom; level++ {
		t.mu.RLock()
		cands := t.lookup(level, user, buf[:0])
		for _, tb := range cands {
			tb.acquire()
		}
		t.mu.RUnlock()
		for _, tb := range cands {
			if !found && err == nil {
				value, kind, entrySeq, found, err = tb.sst.GetEntry(user, seq, op)
			}
			tb.release()
		}
		if found || err != nil {
			return value, kind, entrySeq, found, err
		}
	}
	return nil, 0, 0, false, nil
}

// lookup appends level's tables that may hold user to dst, newest first.
// Caller holds mu.
func (t *Tree) lookup(level int, user []byte, dst []*table) []*table {
	ts := t.levels[level]
	switch {
	case level == 0: // overlapping tables, newest last
		for i := len(ts) - 1; i >= 0; i-- {
			if ts[i].contains(user) {
				dst = append(dst, ts[i])
			}
		}
	case t.seg != nil:
		if tb := t.seg.at(level, t.seg.segFor(level, user)); tb != nil {
			dst = append(dst, tb)
		}
	default: // the first table whose last key is at or past user
		i := sort.Search(len(ts), func(i int) bool {
			_, last, ok := ts[i].bounds()
			return !ok || bytes.Compare(last, user) >= 0
		})
		if i < len(ts) && ts[i].contains(user) {
			dst = append(dst, ts[i])
		}
	}
	return dst
}

// tableOptions configures the tables of level: codec, index mirror and
// traffic counters.
func (t *Tree) tableOptions(level int) semisst.Options {
	o := semisst.Options{
		PageCache:   t.opts.PageCache,
		Codec:       t.opts.Compress.CodecFor(level),
		RawBytes:    &t.traffic[level].RawBytes,
		StoredBytes: &t.traffic[level].StoredBytes,
	}
	if level <= mirrorDepth {
		o.MetaBackup = t.opts.MetaBackup
	}
	return o
}

// name is the file name of generation gen at (level, seg).
func (t *Tree) name(level, seg int, gen uint64) string {
	if t.seg != nil {
		return fmt.Sprintf("%s-L%d-S%d-G%d.sst", t.opts.Prefix, level, seg, gen)
	}
	return fmt.Sprintf("%s-L%d-G%d.sst", t.opts.Prefix, level, gen)
}

// build writes sorted entries, one version per user key and about size
// bytes, as the next generation's table at (level, seg) without installing
// it, and books its bytes to the level. The table goes on the device Place
// picks, or on Dev when that one fills up mid-build. A failed build leaves
// no file or mirror, which a later build would collide with. No tree lock
// is held, so a Get does not wait behind a table write.
func (t *Tree) build(level, seg int, size int64, entries []Entry, op device.Op) (*table, error) {
	name := t.name(level, seg, t.gen.Add(1))
	dev := t.opts.Dev
	if t.opts.Place != nil {
		if dev = t.opts.Place(level, size); dev == nil {
			return nil, fmt.Errorf("lsm: no device for level %d", level)
		}
	}
	tb, err := t.buildOn(dev, name, level, seg, entries, op)
	if errors.Is(err, device.ErrNoSpace) && dev != t.opts.Dev {
		tb, err = t.buildOn(t.opts.Dev, name, level, seg, entries, op)
	}
	if err != nil {
		return nil, err
	}
	t.traffic[level].WriteBytes.Add(uint64(tb.sst.FileBytes()))
	return tb, nil
}

func (t *Tree) buildOn(dev *device.Device, name string, level, seg int, entries []Entry, op device.Op) (*table, error) {
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	sst, err := semisst.Build(f, t.tableOptions(level), entries, op)
	if err != nil {
		t.removeFile(dev, name)
		return nil, err
	}
	tb := &table{sst: sst, dev: dev, seg: seg}
	tb.refs.Store(1)
	return tb, nil
}

// removeFile deletes a table file that is not open, and its index mirror.
func (t *Tree) removeFile(dev *device.Device, name string) {
	dev.Remove(name)
	if t.opts.MetaBackup != nil {
		t.opts.MetaBackup.Remove(name + ".idx")
	}
}
