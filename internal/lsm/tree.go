// Package lsm implements HyperDB's capacity-tier LSM tree over
// semi-SSTables (§3.2, §3.4). The performance tier acts as L0, so the tree
// starts at L1. Every level is partitioned into key-space segments: the
// largest level divides the key space uniformly, and each shallower level's
// files cover exactly T (the size ratio) contiguous child files — the
// alignment that bounds key-range overlap during deep compaction. Levels
// fill in place: migration batches merge into the L1 file owning their
// segment, and preemptive block compaction pushes overflow downward at block
// granularity.
package lsm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
	"hyperdb/internal/stats"
	"hyperdb/internal/zone"
)

// Options configures a capacity-tier tree (one per partition).
type Options struct {
	// Dev is the capacity-tier device.
	Dev *device.Device
	// Partition names this tree's files and bounds its key space.
	Partition int
	// KeyLo and KeyHi bound the partition's 64-bit key-prefix space
	// (KeyHi = 0 means the top of the space).
	KeyLo, KeyHi uint64
	// Ratio is T, the level size ratio (paper default 10).
	Ratio int
	// L1Segments is the number of files at L1 (each deeper level has ×T).
	L1Segments int
	// FileSize is the target live size of one semi-SSTable; a level's
	// capacity is its segment count × FileSize.
	FileSize int64
	// MaxLevels bounds the tree depth.
	MaxLevels int
	// Depth is k, how many levels preemptive compaction chases blocks.
	Depth int
	// TClean is the dirty-block ratio past which a table is fully
	// compacted (paper: 0.5).
	TClean float64
	// SpaceAmpLimit switches victim selection to dirtiest-first when
	// FileBytes/LiveBytes exceeds it (paper: 1.5).
	SpaceAmpLimit float64
	// PowerK is the power-of-k sampling width for victim candidates
	// (paper: 8).
	PowerK int
	// PageCache serves data-block reads.
	PageCache cache.BlockCache
	// MetaBackup mirrors semi-SSTable indexes to the performance tier.
	MetaBackup *device.Device
	// Compress is the per-tier block compression policy: every level this
	// tree writes lives on the capacity (SATA) tier, so the policy's
	// per-level codec applies here and the zone tier stays raw by
	// construction. Reads are mixed-format regardless of the policy.
	Compress compress.Policy
	// Seed makes victim sampling deterministic.
	Seed uint64
}

func (o *Options) fill() {
	if o.Ratio <= 1 {
		o.Ratio = 10
	}
	if o.L1Segments <= 0 {
		o.L1Segments = 2
	}
	if o.FileSize <= 0 {
		o.FileSize = 2 << 20
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 4
	}
	if o.Depth <= 0 {
		o.Depth = 2
	}
	if o.TClean <= 0 {
		o.TClean = 0.5
	}
	if o.SpaceAmpLimit <= 0 {
		o.SpaceAmpLimit = 1.5
	}
	if o.PowerK <= 0 {
		o.PowerK = 8
	}
	if o.KeyHi == 0 {
		o.KeyHi = math.MaxUint64
	}
	if o.Seed == 0 {
		o.Seed = 0x9E3779B97F4A7C15
	}
}

// mirrorDepth is the deepest level whose semi-SSTable index is mirrored to
// the performance tier (§3.1). Preemptive compaction planning concentrates
// its index reads on the levels it drains and their immediate children.
const mirrorDepth = 2

// fileEntry is one segment-aligned semi-SSTable within a level. Entries are
// reference-counted so a compaction can drain and delete a table without
// yanking its file out from under a concurrent read.
type fileEntry struct {
	table *semisst.Table
	seg   int // segment index within the level
	refs  atomic.Int32
	dev   *device.Device
}

// acquire takes a reader reference; callers hold t.mu (any mode).
func (fe *fileEntry) acquire() { fe.refs.Add(1) }

// release drops a reference, deleting the file at zero.
func (fe *fileEntry) release() {
	if fe.refs.Add(-1) == 0 {
		fe.table.Close()
		fe.dev.Remove(fe.table.File().Name())
	}
}

// LevelTraffic tallies compaction I/O per level — the Figure 3b breakdown.
// RawBytes/StoredBytes track uncompressed vs on-device sizes of every data
// block written at the level; their ratio is the level's compression
// ratio, and StoredBytes vs RawBytes is the compaction traffic the codec
// saved.
type LevelTraffic struct {
	ReadBytes    stats.Counter
	WriteBytes   stats.Counter
	Compactions  stats.Counter
	FullRewrites stats.Counter
	RawBytes     stats.Counter
	StoredBytes  stats.Counter
}

// Tree is the capacity-tier LSM for one partition.
type Tree struct {
	opts Options

	// mutMu serialises structural mutations (merges, compactions): the
	// migration worker, the compaction worker and foreground write stalls
	// all mutate the tree, and a compaction must not drop a table out from
	// under an in-flight merge. Reads only take mu.
	mutMu   sync.Mutex
	nextGen uint64 // last generation number handed out; guarded by mutMu

	mu          sync.RWMutex
	levels      []map[int]*fileEntry // levels[0] unused; levels[k][seg]
	rnd         uint64
	traffic     []*LevelTraffic // parallel to levels
	pendingFull []*fileEntry    // tables past TClean awaiting full compaction
}

// New creates an empty tree.
func New(opts Options) *Tree {
	opts.fill()
	t := &Tree{opts: opts, rnd: opts.Seed}
	t.levels = make([]map[int]*fileEntry, opts.MaxLevels+1)
	t.traffic = make([]*LevelTraffic, opts.MaxLevels+1)
	for i := 1; i <= opts.MaxLevels; i++ {
		t.levels[i] = make(map[int]*fileEntry)
		t.traffic[i] = &LevelTraffic{}
	}
	return t
}

// segments returns the number of key-space segments at level k.
func (t *Tree) segments(level int) int {
	n := t.opts.L1Segments
	for i := 1; i < level; i++ {
		n *= t.opts.Ratio
	}
	return n
}

// segWidth returns the key-prefix width of one segment at level k.
func (t *Tree) segWidth(level int) uint64 {
	span := t.opts.KeyHi - t.opts.KeyLo
	n := uint64(t.segments(level))
	w := span / n
	if w == 0 {
		w = 1
	}
	return w
}

// segFor maps a user key to its segment index at level k.
func (t *Tree) segFor(level int, user []byte) int {
	k64 := zone.Key64(user)
	if k64 < t.opts.KeyLo {
		return 0
	}
	seg := int((k64 - t.opts.KeyLo) / t.segWidth(level))
	if max := t.segments(level) - 1; seg > max {
		seg = max
	}
	return seg
}

// capacity returns the live-byte budget of level k. The bottom level is
// unbounded: data settles there.
func (t *Tree) capacity(level int) int64 {
	if level >= t.opts.MaxLevels {
		return math.MaxInt64
	}
	return int64(t.segments(level)) * t.opts.FileSize
}

// LevelBytes returns (live, file) byte totals for level k.
func (t *Tree) LevelBytes(level int) (live, file int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levelBytesLocked(level)
}

func (t *Tree) levelBytesLocked(level int) (live, file int64) {
	for _, fe := range t.levels[level] {
		live += fe.table.LiveBytes()
		file += fe.table.FileBytes()
	}
	return live, file
}

// SpaceAmp returns the §3.4 space-amplification metric: data-block bytes
// including dirty blocks over live data-block bytes (≥ 1). Index blocks are
// metadata, not amplification.
func (t *Tree) SpaceAmp() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var live, stale int64
	for l := 1; l <= t.opts.MaxLevels; l++ {
		for _, fe := range t.levels[l] {
			live += fe.table.LiveBytes()
			stale += fe.table.StaleBytes()
		}
	}
	if live == 0 {
		return 1
	}
	return float64(live+stale) / float64(live)
}

// Empty reports whether the tree holds no table at any level: the partition
// has never demoted anything (or everything it demoted has since been deleted
// and compacted away). Tables are durable, so the answer survives Recover.
func (t *Tree) Empty() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l := 1; l <= t.opts.MaxLevels; l++ {
		if len(t.levels[l]) > 0 {
			return false
		}
	}
	return true
}

// Levels returns the configured maximum depth.
func (t *Tree) Levels() int { return t.opts.MaxLevels }

// Traffic returns level k's compaction counters.
func (t *Tree) Traffic(level int) *LevelTraffic { return t.traffic[level] }

// TableCount returns the number of live tables at level k.
func (t *Tree) TableCount(level int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.levels[level])
}

// tableOptions assembles the semisst options for a table at the given
// level: the policy's per-level codec plus the level's raw/stored byte
// counters, so every append (build or merge) feeds the compression stats.
func (t *Tree) tableOptions(level int, metaDev *device.Device) semisst.Options {
	tr := t.traffic[level]
	return semisst.Options{
		PageCache:   t.opts.PageCache,
		MetaBackup:  metaDev,
		Codec:       t.opts.Compress.CodecFor(level),
		RawBytes:    &tr.RawBytes,
		StoredBytes: &tr.StoredBytes,
	}
}

// buildTable writes sorted entries as the next generation file of (level,
// seg) without installing it. It runs under mutMu only, never under mu: a
// foreground Get does not wait behind a table write.
func (t *Tree) buildTable(level, seg int, entries []semisst.Entry, op device.Op) (*fileEntry, error) {
	t.nextGen++
	name := fmt.Sprintf("p%d-L%d-S%d-G%d.sst", t.opts.Partition, level, seg, t.nextGen)
	f, err := t.opts.Dev.Create(name)
	if err != nil {
		return nil, err
	}
	// Mirror upper-level indexes only: compaction planning reads them
	// constantly, while the deep levels hold ~90% of the data and their
	// indexes would crowd the performance tier out of payload space at
	// small key:value ratios.
	var metaDev *device.Device
	if level <= mirrorDepth {
		metaDev = t.opts.MetaBackup
	}
	tbl, err := semisst.Build(f, t.tableOptions(level, metaDev), entries, op)
	if err != nil {
		// Don't leak the half-built file (or its mirror): a later build
		// would collide on the name and recovery would have to discard it.
		removeTableFile(t.opts, name)
		return nil, err
	}
	fe := &fileEntry{table: tbl, seg: seg, dev: t.opts.Dev}
	fe.refs.Store(1)
	return fe, nil
}

// replaceTable is the generation swap every table replacement goes through
// — a fresh segment (old nil), a full compaction, a drained compaction
// victim (no entries): entries are built as the segment's next generation
// file, which is durable when Build returns; only then is it installed in
// old's place and old released, its file deleted once in-flight readers
// finish. The rule is "destination durable before source removed": a crash
// or error at any point leaves the old generation, the new one, or both,
// and Recover keeps the newest that opens.
func (t *Tree) replaceTable(level, seg int, old *fileEntry, entries []semisst.Entry, op device.Op) error {
	var nfe *fileEntry
	if len(entries) > 0 {
		var err error
		if nfe, err = t.buildTable(level, seg, entries, op); err != nil {
			return err
		}
		t.traffic[level].WriteBytes.Add(uint64(nfe.table.FileBytes()))
	}
	t.mu.Lock()
	if nfe != nil {
		t.levels[level][seg] = nfe
	} else {
		delete(t.levels[level], seg)
	}
	t.mu.Unlock()
	if old != nil {
		old.release()
	}
	return nil
}

// Get searches levels shallow to deep for user at snapshot seq.
func (t *Tree) Get(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, found bool, err error) {
	for level := 1; level <= t.opts.MaxLevels; level++ {
		t.mu.RLock()
		fe := t.levels[level][t.segFor(level, user)]
		if fe != nil {
			fe.acquire()
		}
		t.mu.RUnlock()
		if fe == nil {
			continue
		}
		v, k, ok, err := fe.table.Get(user, seq, op)
		fe.release()
		if err != nil {
			return nil, 0, false, err
		}
		if ok {
			return v, k, true, nil
		}
	}
	return nil, 0, false, nil
}

// MergeBatch integrates a sorted migration batch into L1, splitting it
// across the segment files that own the keys. Entries must be sorted by
// user key with one version per key.
func (t *Tree) MergeBatch(entries []semisst.Entry, op device.Op) error {
	t.mutMu.Lock()
	defer t.mutMu.Unlock()
	return t.pushEntries(1, entries, 0, op)
}

func filterTombstones(entries []semisst.Entry) []semisst.Entry {
	out := entries[:0:0]
	for _, e := range entries {
		if e.Key.Kind != keys.KindDelete {
			out = append(out, e)
		}
	}
	return out
}

// noteDirty queues a table for full compaction when its dirty ratio passes
// T_clean (§3.4).
func (t *Tree) noteDirty(fe *fileEntry) {
	if fe.table.DirtyRatio() <= t.opts.TClean {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.pendingFull {
		if p == fe {
			return
		}
	}
	t.pendingFull = append(t.pendingFull, fe)
}

// rand64 steps the tree's xorshift generator. Caller holds mu.
func (t *Tree) rand64() uint64 {
	t.rnd ^= t.rnd << 13
	t.rnd ^= t.rnd >> 7
	t.rnd ^= t.rnd << 17
	return t.rnd
}
