// Package leveled implements the classic leveled LSM structure shared by
// the two baselines: RocksDB-style (rocksish) feeds it from a memtable
// flush; PrismDB-style (prismish) feeds it from NVMe slab migrations. It is
// the textbook design the paper measures against: L0 holds overlapping
// tables; deeper levels hold sorted runs of non-overlapping tables with
// exponentially growing targets; compaction merges one victim table with
// every overlapping table below, rewriting all of them — the rewrite
// amplification Figure 3b attributes mostly to the deepest levels.
//
// A table is a semi-SSTable (internal/semisst) built once and never appended
// to: a classic SSTable in HyperDB's format, one version per user key, every
// block checksummed, so a damaged block fails a get, a scan and a compaction
// alike instead of serving its bytes.
package leveled

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
	"hyperdb/internal/stats"
)

// Placement chooses the device for a new table at the given level —
// RocksDB's db_path mechanism. It may return a fallback when the preferred
// device is full.
type Placement func(level int, size int64) *device.Device

// Options configures a leveled LSM.
type Options struct {
	// Name prefixes file names (one instance per engine).
	Name string
	// Place picks devices per level (required).
	Place Placement
	// Fallback receives tables whose preferred device fills up mid-build
	// (placement checks are racy across concurrent compaction threads).
	Fallback *device.Device
	// FileSize is the target SSTable size (paper default 64 MiB, scaled).
	FileSize int64
	// L1Target is L1's byte budget; level k's budget is L1Target × Ratio^(k-1).
	L1Target int64
	// Ratio is the level size ratio (default 10).
	Ratio int
	// MaxLevels bounds depth (default 5: L0..L4 like the paper's Fig. 3b).
	MaxLevels int
	// L0Compact triggers L0→L1 compaction at this many L0 files (default 4).
	L0Compact int
	// L0Stall makes Put callers stall at this many L0 files (default 12).
	L0Stall int
	// PageCache serves block reads.
	PageCache cache.BlockCache
	// BloomBits sizes each block's filter, in bits per key.
	BloomBits int
	// Compress picks the block codec per level; levels below the policy's
	// MinLevel write raw blocks.
	Compress compress.Policy
}

func (o *Options) fill() {
	if o.FileSize <= 0 {
		o.FileSize = 2 << 20
	}
	if o.L1Target <= 0 {
		o.L1Target = 4 * o.FileSize
	}
	if o.Ratio <= 1 {
		o.Ratio = 10
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 5
	}
	if o.L0Compact <= 0 {
		o.L0Compact = 4
	}
	if o.L0Stall <= 0 {
		o.L0Stall = 12
	}
	if o.BloomBits <= 0 {
		o.BloomBits = 10
	}
}

// table is one fresh-only semi-SSTable plus the bounds and size the planner
// reads without locking it. Tables are reference-counted: the LSM holds one
// reference while the table is installed in a level, and readers (gets,
// scans, compaction inputs) hold one for the duration of their access, so a
// compaction can delist a table without yanking the file out from under an
// in-flight read.
type table struct {
	sst               *semisst.Table
	dev               *device.Device
	smallest, largest []byte // first and last user key
	size              int64  // file bytes: data, index and footer
	refs              atomic.Int32
}

// newTable wraps sst, which must hold at least one block, with the LSM's own
// reference.
func newTable(sst *semisst.Table, dev *device.Device) *table {
	metas := sst.LiveBlockMetas()
	t := &table{sst: sst, dev: dev, smallest: metas[0].First, largest: metas[len(metas)-1].Last, size: sst.FileBytes()}
	t.refs.Store(1)
	return t
}

// acquire takes a reader reference. Callers must hold l.mu (any mode) so
// acquisition cannot race the final release.
func (t *table) acquire() { t.refs.Add(1) }

// release drops a reference; the last one closes the table, so its blocks
// leave the page cache, and deletes the file.
func (t *table) release() {
	if t.refs.Add(-1) == 0 {
		t.sst.Close()
		t.dev.Remove(t.sst.File().Name())
	}
}

func (t *table) rang() keys.Range { return keys.Range{Lo: t.smallest, Hi: keys.Successor(t.largest)} }

// LevelTraffic tallies compaction I/O per level (Figure 3b). RawBytes and
// StoredBytes compare uncompressed vs on-device data-block sizes written at
// the level; their ratio is the level's compression ratio.
type LevelTraffic struct {
	ReadBytes   stats.Counter
	WriteBytes  stats.Counter
	Compactions stats.Counter
	RawBytes    stats.Counter
	StoredBytes stats.Counter
}

// LSM is the leveled tree. Mutations (Ingest, CompactOnce) must come from
// one goroutine at a time; reads are concurrent.
type LSM struct {
	opts Options

	mu        sync.RWMutex
	levels    [][]*table // levels[0] newest-last; deeper levels key-sorted
	nextGen   uint64
	rr        []int           // round-robin victim cursor per level
	busy      map[*table]bool // inputs of in-flight compactions
	activeOut []bool          // a compaction is writing into this level

	traffic []*LevelTraffic
	stallCh chan struct{} // closed and replaced to broadcast un-stall
}

// Traffic returns level k's compaction counters.
func (l *LSM) Traffic(level int) *LevelTraffic { return l.traffic[level] }

// MaxLevels returns the configured depth.
func (l *LSM) MaxLevels() int { return l.opts.MaxLevels }

// TableCount returns the number of tables at a level.
func (l *LSM) TableCount(level int) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.levels[level])
}

// LevelBytes returns the byte total at a level.
func (l *LSM) LevelBytes(level int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var n int64
	for _, t := range l.levels[level] {
		n += t.size
	}
	return n
}

// target returns level k's byte budget (0 = "count files" for L0).
func (l *LSM) target(level int) int64 {
	if level == 0 {
		return 0
	}
	t := l.opts.L1Target
	for i := 1; i < level; i++ {
		t *= int64(l.opts.Ratio)
	}
	return t
}

// Entry is one sorted KV fed to Ingest.
type Entry = semisst.Entry

// Ingest writes entries, in internal-key order, as one or more new L0
// tables. This is the memtable-flush / migration entry point. I/O is
// background. A table holds one version per user key, so only the newest
// version of each key is written: every baseline reads at keys.MaxSeq, so no
// reader could see an older one. It compacts entries in place.
func (l *LSM) Ingest(entries []Entry, op device.Op) error {
	op.Background = true
	op.Sequential = true
	entries = slices.CompactFunc(entries, func(a, b Entry) bool { return bytes.Equal(a.Key.User, b.Key.User) })
	for len(entries) > 0 {
		tbl, rest, err := l.buildTable(0, entries, op)
		if err != nil {
			return err
		}
		entries = rest
		l.mu.Lock()
		l.levels[0] = append(l.levels[0], tbl)
		l.mu.Unlock()
		l.traffic[0].WriteBytes.Add(uint64(tbl.size))
	}
	return nil
}

// buildTable writes the entries up to FileSize (at least one) as a new table
// at level, returning the table and the remaining entries.
func (l *LSM) buildTable(level int, entries []Entry, op device.Op) (*table, []Entry, error) {
	l.mu.Lock()
	l.nextGen++
	gen := l.nextGen
	l.mu.Unlock()
	n, size := 0, int64(0)
	for n < len(entries) && size < l.opts.FileSize {
		size += int64(len(entries[n].Key.User) + len(entries[n].Value) + 16)
		n++
	}
	dev := l.opts.Place(level, size)
	if dev == nil {
		return nil, nil, fmt.Errorf("leveled: no device for level %d", level)
	}
	tbl, err := l.buildTableOn(dev, level, gen, entries[:n], op)
	if errors.Is(err, device.ErrNoSpace) && l.opts.Fallback != nil && dev != l.opts.Fallback {
		// The placement check raced other builders; retry on the fallback.
		tbl, err = l.buildTableOn(l.opts.Fallback, level, gen, entries[:n], op)
	}
	return tbl, entries[n:], err
}

// buildTableOn writes one table on the given device; a failed build leaves
// no file.
func (l *LSM) buildTableOn(dev *device.Device, level int, gen uint64, entries []Entry, op device.Op) (*table, error) {
	name := fmt.Sprintf("%s-L%d-G%d.sst", l.opts.Name, level, gen)
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	sst, err := semisst.Build(f, l.tableOptions(level), entries, op)
	if err != nil {
		dev.Remove(name)
		return nil, err
	}
	return newTable(sst, dev), nil
}

// tableOptions configures the tables of level: its codec, and its traffic
// counters fed with every data block written.
func (l *LSM) tableOptions(level int) semisst.Options {
	return semisst.Options{
		BloomBitsPerKey: l.opts.BloomBits,
		PageCache:       l.opts.PageCache,
		Codec:           l.opts.Compress.CodecFor(level),
		RawBytes:        &l.traffic[level].RawBytes,
		StoredBytes:     &l.traffic[level].StoredBytes,
	}
}

// Get searches L0 newest-first then each deeper level.
func (l *LSM) Get(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, found bool, err error) {
	value, kind, _, found, err = l.GetWithSeq(user, seq, op)
	return value, kind, found, err
}

// GetWithSeq is Get plus the matched version's sequence number. Crash
// recovery uses it to arbitrate between an LSM version and a fast-tier copy
// of the same key.
func (l *LSM) GetWithSeq(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, entrySeq uint64, found bool, err error) {
	l.mu.RLock()
	var all []*table
	for i := len(l.levels[0]) - 1; i >= 0; i-- {
		t := l.levels[0][i]
		if t.rang().Contains(user) {
			all = append(all, t)
		}
	}
	for level := 1; level < l.opts.MaxLevels; level++ {
		if t := findTable(l.levels[level], user); t != nil {
			all = append(all, t)
		}
	}
	for _, t := range all {
		t.acquire()
	}
	l.mu.RUnlock()
	defer func() {
		for _, t := range all {
			t.release()
		}
	}()

	for _, t := range all {
		v, k, es, ok, err := t.sst.GetEntry(user, seq, op)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if ok {
			return v, k, es, true, nil
		}
	}
	return nil, 0, 0, false, nil
}

// findTable binary-searches a sorted non-overlapping level.
func findTable(tables []*table, user []byte) *table {
	lo, hi := 0, len(tables)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(tables[mid].largest, user) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(tables) {
		return nil
	}
	if bytes.Compare(tables[lo].smallest, user) <= 0 {
		return tables[lo]
	}
	return nil
}

// NeedsCompaction reports whether any level is over budget, and the
// shallowest such level.
func (l *LSM) NeedsCompaction() (int, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.levels[0]) >= l.opts.L0Compact {
		return 0, true
	}
	for level := 1; level < l.opts.MaxLevels-1; level++ {
		var n int64
		for _, t := range l.levels[level] {
			n += t.size
		}
		if n > l.target(level) {
			return level, true
		}
	}
	return 0, false
}

// Quiesced reports whether no level needs compaction and no compaction is
// in flight — the drain-complete condition.
func (l *LSM) Quiesced() bool {
	if _, need := l.NeedsCompaction(); need {
		return false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, active := range l.activeOut {
		if active {
			return false
		}
	}
	return true
}

// Stalled reports whether writers should stall on L0 debt.
func (l *LSM) Stalled() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.levels[0]) >= l.opts.L0Stall
}

// StallChan returns a channel closed at the next un-stall transition.
func (l *LSM) StallChan() <-chan struct{} {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stallCh
}
