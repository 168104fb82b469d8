// Package leveled implements the classic leveled LSM structure shared by
// the two baselines: RocksDB-style (rocksish) feeds it from a memtable
// flush; PrismDB-style (prismish) feeds it from NVMe slab migrations. It is
// the textbook design the paper measures against: L0 holds overlapping
// tables; deeper levels hold sorted runs of non-overlapping tables with
// exponentially growing targets; compaction merges one victim table with
// every overlapping table below, rewriting all of them — the rewrite
// amplification Figure 3b attributes mostly to the deepest levels.
package leveled

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/sstable"
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
	// BloomBits per key for table filters.
	BloomBits int
	// Compress picks the block codec per level; levels below the policy's
	// MinLevel write the legacy raw format.
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

// table is one SSTable plus its metadata. Tables are reference-counted:
// the LSM holds one reference while the table is installed in a level, and
// readers (gets, scans, compaction inputs) hold one for the duration of
// their access, so a compaction can delist a table without yanking the file
// out from under an in-flight read.
type table struct {
	reader *sstable.Reader
	meta   sstable.Meta
	file   *device.File
	dev    *device.Device
	refs   atomic.Int32
}

// acquire takes a reader reference. Callers must hold l.mu (any mode) so
// acquisition cannot race the final release.
func (t *table) acquire() { t.refs.Add(1) }

// release drops a reference, deleting the file at zero.
func (t *table) release() {
	if t.refs.Add(-1) == 0 {
		t.dev.Remove(t.file.Name())
	}
}

func (t *table) rang() keys.Range { return t.meta.Range() }

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

	bgMu      sync.Mutex
	bgErrs    int   // errors background workers gave up on since the last Drain
	lastBgErr error // the newest of them
}

// New creates an empty leveled LSM.
func New(opts Options) (*LSM, error) {
	opts.fill()
	if opts.Place == nil {
		return nil, fmt.Errorf("leveled: Placement required")
	}
	l := &LSM{
		opts:      opts,
		levels:    make([][]*table, opts.MaxLevels),
		rr:        make([]int, opts.MaxLevels),
		busy:      make(map[*table]bool),
		activeOut: make([]bool, opts.MaxLevels+1),
		traffic:   make([]*LevelTraffic, opts.MaxLevels),
		stallCh:   make(chan struct{}),
	}
	for i := range l.traffic {
		l.traffic[i] = &LevelTraffic{}
	}
	return l, nil
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
		n += t.meta.TotalSize
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
type Entry struct {
	Key   keys.InternalKey
	Value []byte
}

// Ingest writes sorted entries as one or more new L0 tables. This is the
// memtable-flush / migration entry point. I/O is background.
func (l *LSM) Ingest(entries []Entry, op device.Op) error {
	op.Background = true
	op.Sequential = true
	for len(entries) > 0 {
		n := len(entries)
		tbl, rest, err := l.buildTable(0, entries, op)
		if err != nil {
			return err
		}
		entries = rest
		if len(rest) == n {
			return fmt.Errorf("leveled: ingest made no progress")
		}
		l.mu.Lock()
		l.levels[0] = append(l.levels[0], tbl)
		l.mu.Unlock()
		l.traffic[0].WriteBytes.Add(uint64(tbl.meta.TotalSize))
	}
	return nil
}

// buildTable streams entries into a new table at level until FileSize,
// returning the table and the remaining entries.
func (l *LSM) buildTable(level int, entries []Entry, op device.Op) (*table, []Entry, error) {
	l.mu.Lock()
	l.nextGen++
	gen := l.nextGen
	l.mu.Unlock()
	size := int64(0)
	for _, e := range entries {
		size += int64(len(e.Key.User) + len(e.Value) + 16)
		if size > l.opts.FileSize {
			break
		}
	}
	dev := l.opts.Place(level, size)
	if dev == nil {
		return nil, nil, fmt.Errorf("leveled: no device for level %d", level)
	}
	tbl, rest, err := l.buildTableOn(dev, level, gen, entries, op)
	if errors.Is(err, device.ErrNoSpace) && l.opts.Fallback != nil && dev != l.opts.Fallback {
		// The placement check raced other builders; retry on the fallback.
		dev.Remove(fmt.Sprintf("%s-L%d-G%d.sst", l.opts.Name, level, gen))
		return l.buildTableOn(l.opts.Fallback, level, gen, entries, op)
	}
	return tbl, rest, err
}

// buildTableOn writes one table on the given device.
func (l *LSM) buildTableOn(dev *device.Device, level int, gen uint64, entries []Entry, op device.Op) (*table, []Entry, error) {
	name := fmt.Sprintf("%s-L%d-G%d.sst", l.opts.Name, level, gen)
	f, err := dev.Create(name)
	if err != nil {
		return nil, nil, err
	}
	w := sstable.NewWriter(f, sstable.WriterOptions{
		BloomBitsPerKey: l.opts.BloomBits,
		ExpectedKeys:    int(l.opts.FileSize / 64),
		Op:              op,
		Codec:           l.opts.Compress.CodecFor(level),
	})
	written := int64(0)
	i := 0
	for ; i < len(entries); i++ {
		e := entries[i]
		if err := w.Add(e.Key, e.Value); err != nil {
			return nil, nil, err
		}
		written += int64(len(e.Key.User) + len(e.Value) + 16)
		if written >= l.opts.FileSize && i+1 < len(entries) &&
			!bytes.Equal(entries[i+1].Key.User, e.Key.User) {
			i++
			break
		}
	}
	meta, err := w.Finish()
	if err != nil {
		dev.Remove(name)
		return nil, nil, err
	}
	l.traffic[level].RawBytes.Add(uint64(meta.RawSize))
	l.traffic[level].StoredBytes.Add(uint64(meta.DataSize))
	r, err := sstable.OpenReader(f, l.opts.PageCache, op)
	if err != nil {
		dev.Remove(name)
		return nil, nil, err
	}
	tbl := &table{reader: r, meta: meta, file: f, dev: dev}
	tbl.refs.Store(1) // the LSM's own reference
	return tbl, entries[i:], nil
}

// Get searches L0 newest-first then each deeper level.
func (l *LSM) Get(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, found bool, err error) {
	l.mu.RLock()
	var candidates []*table
	for i := len(l.levels[0]) - 1; i >= 0; i-- {
		t := l.levels[0][i]
		if t.rang().Contains(user) {
			candidates = append(candidates, t)
		}
	}
	deeper := make([]*table, 0, l.opts.MaxLevels)
	for level := 1; level < l.opts.MaxLevels; level++ {
		if t := findTable(l.levels[level], user); t != nil {
			deeper = append(deeper, t)
		}
	}
	all := append(candidates, deeper...)
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
		v, k, ok, err := t.reader.Get(user, seq, op)
		if err != nil {
			return nil, 0, false, err
		}
		if ok {
			return v, k, true, nil
		}
	}
	return nil, 0, false, nil
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
		v, k, es, ok, err := t.reader.GetEntry(user, seq, op)
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
		if bytes.Compare(tables[mid].meta.Largest, user) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(tables) {
		return nil
	}
	if bytes.Compare(tables[lo].meta.Smallest, user) <= 0 {
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
			n += t.meta.TotalSize
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
