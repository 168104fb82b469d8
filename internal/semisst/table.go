package semisst

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"

	"hyperdb/internal/block"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// LiveBytes returns the bytes held by valid data blocks.
func (t *Table) LiveBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveBytes
}

// FileBytes returns the on-device footprint including dirty blocks and the
// index tail — the number space-amplification is computed from.
func (t *Table) FileBytes() int64 { return t.f.Size() }

// StaleBytes returns bytes occupied by dirty (superseded) blocks.
func (t *Table) StaleBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stale
}

// DirtyRatio returns stale bytes over total data bytes; §3.4 triggers a full
// compaction when this exceeds T_clean.
func (t *Table) DirtyRatio() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.liveBytes+t.stale == 0 {
		return 0
	}
	return float64(t.stale) / float64(t.liveBytes+t.stale)
}

// NumEntries returns the count of live entries.
func (t *Table) NumEntries() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveEntries
}

// NumLiveBlocks returns the count of valid data blocks.
func (t *Table) NumLiveBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.live)
}

// Range returns the closed-open user-key span of the live blocks, or the
// empty range when the table has none.
func (t *Table) Range() keys.Range {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.live) == 0 {
		return keys.Range{Lo: []byte{}, Hi: []byte{}}
	}
	first := t.blocks[t.live[0]].First
	last := t.blocks[t.live[len(t.live)-1]].Last
	return keys.Range{Lo: append([]byte(nil), first...), Hi: keys.Successor(last)}
}

// LiveBlockMetas returns the valid blocks in key order as of now: the
// table's published snapshot, shared with every other reader and never
// written again. Read-only.
func (t *Table) LiveBlockMetas() []BlockMeta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveMetas
}

// ChargeIndexRead accounts one read of the table's index block, against the
// performance-tier mirror when configured (§3.1's low-cost index lookup) or
// the table's own device otherwise. Compaction planners call this before
// consulting block key ranges.
func (t *Table) ChargeIndexRead(op device.Op) {
	t.mu.RLock()
	n := t.idxBytes
	metaF := t.metaF
	t.mu.RUnlock()
	if metaF != nil {
		if sz := metaF.Size(); sz > 0 {
			buf := make([]byte, sz)
			metaF.ReadAt(buf, 0, op)
		}
		return
	}
	if n == 0 {
		return
	}
	buf := make([]byte, n)
	t.f.ReadAt(buf, t.f.Size()-footerSize-n, op)
}

// findBlock returns the block of a live snapshot whose range contains user,
// or nil.
func findBlock(metas []BlockMeta, user []byte) *BlockMeta {
	lo, hi := 0, len(metas)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(metas[mid].First, user) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first block with First > user; candidate is lo-1.
	if lo == 0 || bytes.Compare(user, metas[lo-1].Last) > 0 {
		return nil
	}
	return &metas[lo-1]
}

// checkBlock reports stored bytes that do not match the checksum bm's index
// segment recorded for them.
func (t *Table) checkBlock(bm *BlockMeta, stored []byte) error {
	if crc32.ChecksumIEEE(stored) != bm.Sum {
		return fmt.Errorf("semisst: %q block at %d fails its index checksum", t.f.Name(), bm.Handle.Offset)
	}
	return nil
}

// readBlockData fetches one data block for a foreground read, via the page
// cache when configured. The cache holds stored (possibly compressed) bytes.
// Bytes fresh from the device must match the block's index checksum before
// they are cached or served, so a damaged block fails closed and a cache
// hit, already verified, pays nothing; tagged blocks decompress after the
// fetch — into *scratch, which keeps the array for the caller's next block,
// or into a new buffer when scratch is nil.
func (t *Table) readBlockData(bm *BlockMeta, op device.Op, scratch *[]byte) ([]byte, error) {
	var key string
	data := []byte(nil)
	if t.opts.PageCache != nil {
		key = t.cacheKey(bm)
		if cached, ok := t.opts.PageCache.Get(key); ok {
			data = cached
		}
	}
	if data == nil {
		data = make([]byte, bm.Handle.Size)
		if _, err := t.f.ReadAt(data, int64(bm.Handle.Offset), op); err != nil {
			return nil, err
		}
		if err := t.checkBlock(bm, data); err != nil {
			return nil, err
		}
		if t.opts.PageCache != nil {
			t.opts.PageCache.Put(key, data)
		}
	}
	switch {
	case !bm.Tagged:
		return data, nil
	case scratch == nil:
		return compress.Decode(data, maxRawBlock)
	}
	raw, err := compress.DecodeInto(*scratch, data, maxRawBlock)
	if err == nil {
		*scratch = raw
	}
	return raw, err
}

// blockBufs holds the buffers GetEntry decodes blocks into.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// cacheKey names bm's stored bytes in the page cache.
func (t *Table) cacheKey(bm *BlockMeta) string {
	kb := make([]byte, 0, 64)
	return string(strconv.AppendUint(append(kb, t.cachePrefix...), bm.Handle.Offset, 16))
}

// uncache drops a dead block — dirtied by a merge, or its table deleted —
// from the page cache: nothing will ask for it again, and a block that was
// read twice would otherwise sit in the cache's warm ring until live ones
// pushed it out. A reader still on an old snapshot may put one back; it
// enters cold and ages out unread.
func (t *Table) uncache(bm *BlockMeta) {
	if t.opts.PageCache != nil {
		t.opts.PageCache.Delete(t.cacheKey(bm))
	}
}

// Get returns the newest version of user visible at snapshot seq. found is
// false when the table holds no version; tombstones return found=true with
// kind=KindDelete.
func (t *Table) Get(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, found bool, err error) {
	value, kind, _, found, err = t.GetEntry(user, seq, op)
	return value, kind, found, err
}

// GetEntry is Get plus the matched version's sequence, which the baselines'
// crash recovery weighs against a fast-tier copy of the key. The search and
// the device read run lock-free on the live snapshot: a block's bytes stay
// where they were written for the life of the file, dirty or not. A tagged
// block decodes into a pooled buffer, which the value is copied out of.
func (t *Table) GetEntry(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, entrySeq uint64, found bool, err error) {
	bm := findBlock(t.LiveBlockMetas(), user)
	if bm == nil || !bm.Filter.Contains(user) {
		return nil, 0, 0, false, nil
	}
	buf := blockBufs.Get().(*[]byte)
	defer blockBufs.Put(buf)
	data, err := t.readBlockData(bm, op, buf)
	if err != nil {
		return nil, 0, 0, false, err
	}
	it, err := block.NewIter(data)
	if err != nil {
		return nil, 0, 0, false, err
	}
	it.SeekGE(keys.MakeSearchKey(user, seq))
	if it.Valid() && bytes.Equal(it.Key().User, user) {
		return append([]byte(nil), it.Value()...), it.Key().Kind, it.Key().Seq, true, nil
	}
	return nil, 0, 0, false, it.Err()
}

// MergeStats reports what a Merge or ExtractOverlapping did. BytesRead is
// what the device charged for the victim blocks: page-rounded extent bytes.
type MergeStats struct {
	BlocksDirtied int
	BytesRead     int64
}

// overlapping returns the live blocks whose key range overlaps any of spans,
// in key order: their indices into t.blocks and metadata snapshots.
func (t *Table) overlapping(spans []keys.Range) (idx []int, metas []BlockMeta) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, li := range t.live {
		r := t.blocks[li].Range()
		for _, s := range spans {
			if r.Overlaps(s) {
				idx = append(idx, li)
				metas = append(metas, t.blocks[li])
				break
			}
		}
	}
	return idx, metas
}

// spanOf returns the closed-open user-key range a sorted run covers.
func spanOf(entries []Entry) keys.Range {
	return keys.Range{Lo: entries[0].Key.User, Hi: keys.Successor(entries[len(entries)-1].Key.User)}
}

// Merge integrates incoming (sorted by user key, one version per key, newest
// versions) into the table: live blocks overlapping incoming are read and
// dirtied, their surviving entries merged with incoming, and the result
// appended as fresh blocks (Fig. 5). Tombstones in incoming are retained
// (dropTombstones false) or dropped (true, for the bottom level).
func (t *Table) Merge(incoming []Entry, dropTombstones bool, op device.Op) (MergeStats, error) {
	var st MergeStats
	if len(incoming) == 0 {
		return st, nil
	}
	dirty, victims := t.overlapping([]keys.Range{spanOf(incoming)})
	existing, n, err := t.readRun(victims, op)
	st.BytesRead = n
	if err != nil {
		return st, err
	}
	st.BlocksDirtied = len(dirty)
	return st, t.appendMerge(MergeSorted(existing, incoming, dropTombstones), dirty, op)
}

// DirtyRatioAfterMerge predicts, from block metadata alone, the DirtyRatio a
// Merge of incoming would leave: the stale bytes plus the victims it would
// dirty, over everything the file would then hold. The merged blocks are
// counted as the incoming payload only, a lower bound (survivors of the
// victims come on top), so the prediction errs high — except under a codec
// that shrinks incoming below its payload size.
func (t *Table) DirtyRatioAfterMerge(incoming []Entry, dropTombstones bool) float64 {
	if len(incoming) == 0 {
		return t.DirtyRatio()
	}
	var in int64
	for _, e := range incoming {
		if !dropTombstones || e.Key.Kind != keys.KindDelete {
			in += int64(len(e.Key.User) + len(e.Value))
		}
	}
	span := spanOf(incoming)
	t.mu.RLock()
	defer t.mu.RUnlock()
	var victim int64
	for _, li := range t.live {
		if b := &t.blocks[li]; b.Range().Overlaps(span) {
			victim += int64(b.Handle.Size)
		}
	}
	if total := t.liveBytes + in + t.stale; total > 0 {
		return float64(t.stale+victim) / float64(total)
	}
	return 0
}

// ExtractOverlapping carves every live block whose key range overlaps any of
// spans out of the table (§3.4's preemptive compaction): their entries are
// handed to move in user-key order, and only once move has returned nil —
// the deeper level durably holds them — are the blocks dirtied. If move
// fails the table is unchanged.
func (t *Table) ExtractOverlapping(spans []keys.Range, op device.Op, move func([]Entry) error) (MergeStats, error) {
	var st MergeStats
	dirty, victims := t.overlapping(spans)
	if len(dirty) == 0 {
		return st, nil
	}
	entries, n, err := t.readRun(victims, op)
	st.BytesRead = n
	if err != nil {
		return st, err
	}
	if err := move(entries); err != nil {
		return st, err
	}
	st.BlocksDirtied = len(dirty)
	return st, t.appendMerge(nil, dirty, op)
}

// MergeSorted merges two runs sorted by user key; on collision the entry
// with the larger sequence number wins. Tombstones are elided when
// dropTombstones is set (bottom-level merges).
func MergeSorted(old, new []Entry, dropTombstones bool) []Entry {
	out := make([]Entry, 0, len(old)+len(new))
	i, j := 0, 0
	emit := func(e Entry) {
		if dropTombstones && e.Key.Kind == keys.KindDelete {
			return
		}
		out = append(out, e)
	}
	for i < len(old) && j < len(new) {
		c := bytes.Compare(old[i].Key.User, new[j].Key.User)
		switch {
		case c < 0:
			emit(old[i])
			i++
		case c > 0:
			emit(new[j])
			j++
		default:
			if old[i].Key.Seq > new[j].Key.Seq {
				emit(old[i])
			} else {
				emit(new[j])
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		emit(old[i])
	}
	for ; j < len(new); j++ {
		emit(new[j])
	}
	return out
}

// AllEntries reads every live entry in user-key order and reports the bytes
// the device charged for them.
func (t *Table) AllEntries(op device.Op) ([]Entry, int64, error) {
	return t.readRun(t.LiveBlockMetas(), op)
}

// Iter iterates live entries in user-key order, streaming one block at a
// time (foreground scans). It walks the live snapshot as of NewIter: merges
// only append, so the snapshot stays readable for the life of the file.
type Iter struct {
	t     *Table
	op    device.Op
	metas []BlockMeta
	bi    int
	cur   *block.Iter
	err   error
}

// NewIter returns an unpositioned iterator over the table's live entries;
// call First or SeekGE. It takes the snapshot and does no I/O, and it is a
// value so that a scan can hold one per candidate table in a single slice.
func (t *Table) NewIter(op device.Op) Iter {
	return Iter{t: t, op: op, metas: t.LiveBlockMetas(), bi: -1}
}

func (it *Iter) loadBlock(i int) bool {
	if i >= len(it.metas) {
		it.cur = nil
		return false
	}
	data, err := it.t.readBlockData(&it.metas[i], it.op, nil)
	if err != nil {
		it.err, it.cur = err, nil
		return false
	}
	b, err := block.NewIter(data)
	if err != nil {
		it.err, it.cur = err, nil
		return false
	}
	it.bi, it.cur = i, b
	return true
}

// First positions at the first live entry.
func (it *Iter) First() {
	if it.loadBlock(0) {
		it.cur.First()
		it.skipExhausted()
	}
}

// SeekGE positions at the first entry with user key >= user.
func (it *Iter) SeekGE(user []byte) {
	lo, hi := 0, len(it.metas)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(it.metas[mid].Last, user) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if !it.loadBlock(lo) {
		return
	}
	it.cur.SeekGE(keys.MakeSearchKey(user, keys.MaxSeq))
	it.skipExhausted()
}

// Next advances the iterator.
func (it *Iter) Next() {
	if it.cur == nil {
		return
	}
	it.cur.Next()
	it.skipExhausted()
}

func (it *Iter) skipExhausted() {
	for it.cur != nil && !it.cur.Valid() {
		if err := it.cur.Err(); err != nil {
			it.err, it.cur = err, nil
			return
		}
		if !it.loadBlock(it.bi + 1) {
			return
		}
		it.cur.First()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.cur != nil && it.cur.Valid() }

// Key returns the current internal key.
func (it *Iter) Key() keys.InternalKey { return it.cur.Key() }

// Value returns the current value.
func (it *Iter) Value() []byte { return it.cur.Value() }

// Err returns the first error encountered.
func (it *Iter) Err() error { return it.err }
