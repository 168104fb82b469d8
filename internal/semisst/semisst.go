// Package semisst implements the semi-sorted string table of §3.2: entries
// are sorted inside each data block, blocks may be appended after the file
// is persisted, and the index block records every block's offset, key range,
// validity, bloom filter and checksum. A merge never rewrites the whole
// file: superseded blocks are marked dirty (dead space, reclaimed by a later
// full compaction); survivors stay clean and in place; merged entries form
// fresh blocks appended at the tail together with a new index block.
//
// The live blocks of a table always cover pairwise-disjoint key ranges, so a
// point lookup touches at most one data block.
//
// On-device format, one version (Magic names it; older images fail closed):
//
//	file   = { data block … | index | footer } repeated, newest last
//	index  = maxSeq | nBlocks | segment per block, in file order
//	segment, live  = offset | size | entries | flags(1 raw, 2 tagged) |
//	                 first | last | filter | crc32(stored block bytes)
//	segment, dirty = offset | size | entries | 0 | first | last
//	footer = index offset u64 | index size u64 | crc32(index) u32 |
//	         crc32(the 20 bytes before) u32 | Magic u64
//
// Integers are uvarints and byte strings length-prefixed, except the
// fixed-width little-endian checksums and footer. The index lists no keys:
// the planner decides on block key ranges alone (DESIGN.md, "Why the index
// lists no keys"). Every byte is covered by a checksum that some reader
// verifies before trusting it: the footer by its own crc, the index by the
// footer's, and each data block by its segment's — checked by the
// background run reader on every block it fetches and by foreground reads
// whenever the bytes come from the device rather than the page cache.
//
// Following §3.1, the index can be mirrored to the performance tier
// (Options.MetaBackup): compaction workers then read block ranges from the
// NVMe mirror instead of the capacity tier — the "low-cost index lookup" the
// paper credits for cheap overlap scoring.
//
// It is the one table format of all three engines. HyperDB's segmented tree
// appends to its tables; the baselines' leveled one (internal/lsm's classic
// policy) builds each table once and never appends, and a table that was
// never appended to is a classic SSTable: every block live, one index, one
// footer.
package semisst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"hyperdb/internal/block"
	"hyperdb/internal/bloom"
	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/stats"
)

// maxRawBlock caps the decoded size a compressed block may declare; it
// bounds the allocation a corrupted rawLen can trigger. Values and blocks
// are bounded far below the wire's 16 MiB frame cap.
const maxRawBlock = 16 << 20

// Magic identifies a semi-SSTable footer and, in its low byte, the format
// version: 01 is the first whose index carries block checksums instead of
// key lists.
const Magic = 0x5e3915ab1e5e3901

// footerSize is the fixed footer length. The footer's own checksum lets
// crash recovery distinguish a real footer from data bytes that happen to
// end in the magic while scanning backward for the newest persisted index;
// the index checksum makes a damaged index fail the same way a torn one
// does.
const footerSize = 32

// encodeFooter serialises a footer pointing at the index block idx stored
// at off.
func encodeFooter(off int64, idx []byte) []byte {
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:], uint64(off))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(idx)))
	binary.LittleEndian.PutUint32(footer[16:], crc32.ChecksumIEEE(idx))
	binary.LittleEndian.PutUint32(footer[20:], crc32.ChecksumIEEE(footer[:20]))
	binary.LittleEndian.PutUint64(footer[24:], Magic)
	return footer
}

// parseFooter validates magic and checksum and returns the index handle and
// the checksum the index must have.
func parseFooter(footer []byte) (h Handle, idxSum uint32, ok bool) {
	if len(footer) != footerSize ||
		binary.LittleEndian.Uint64(footer[24:]) != Magic ||
		binary.LittleEndian.Uint32(footer[20:]) != crc32.ChecksumIEEE(footer[:20]) {
		return Handle{}, 0, false
	}
	h = Handle{Offset: binary.LittleEndian.Uint64(footer[0:]), Size: binary.LittleEndian.Uint64(footer[8:])}
	return h, binary.LittleEndian.Uint32(footer[16:]), true
}

// handleWithin reports whether h lies inside [0, limit) without overflowing;
// handles come from bytes a crash or corruption may have mangled.
func handleWithin(h Handle, limit int64) bool {
	return limit >= 0 && h.Offset <= uint64(limit) && h.Size <= uint64(limit)-h.Offset
}

// Handle locates a block inside a table file.
type Handle struct {
	Offset uint64
	Size   uint64
}

// BlockMeta describes one data block of a semi-SSTable.
type BlockMeta struct {
	Handle  Handle
	First   []byte // first user key in the block
	Last    []byte // last user key in the block
	Entries int
	Valid   bool
	// Tagged marks a block stored as a self-describing compress payload
	// (index flags byte 2). Legacy blocks (flags byte 1) hold raw block
	// bytes with no tag, so tables written before compression existed —
	// or with the codec off — read back unchanged.
	Tagged bool
	Filter *bloom.Filter
	// Sum is the crc32 of the block's stored bytes (compressed, if Tagged).
	Sum uint32
	// enc caches the block's serialised index segment; blocks are immutable
	// once written, so each merge's index rewrite reuses it instead of
	// re-encoding every block in the table.
	enc []byte
}

// Range returns the closed-open user-key range of the block.
func (b *BlockMeta) Range() keys.Range {
	return keys.Range{Lo: b.First, Hi: keys.Successor(b.Last)}
}

// Options configures semi-SSTable construction and merging.
type Options struct {
	// BlockSize targets one device page per data block (default 4096).
	BlockSize int
	// BloomBitsPerKey sizes per-block filters (default 10).
	BloomBitsPerKey int
	// PageCache, if set, caches data blocks across reads.
	PageCache cache.BlockCache
	// MetaBackup, if set, mirrors the index block to this (performance-tier)
	// device so index reads are charged there instead of the capacity tier.
	MetaBackup *device.Device
	// Codec compresses freshly written data blocks. None (the zero value)
	// keeps the legacy untagged format byte-for-byte. Reads are
	// mixed-format regardless: each block's index flags say how it is
	// stored, so a table built raw stays readable after the codec turns
	// on and compaction rewrites it transparently.
	Codec compress.Codec
	// RawBytes/StoredBytes, when set, accumulate the uncompressed vs
	// on-device sizes of every data block this table appends — the
	// compression-ratio feed for the level traffic stats.
	RawBytes    *stats.Counter
	StoredBytes *stats.Counter
}

func (o *Options) fill() {
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.BloomBitsPerKey <= 0 {
		o.BloomBitsPerKey = 10
	}
}

// Entry is one key-value pair fed into a build or merge.
type Entry struct {
	Key   keys.InternalKey
	Value []byte
}

// Table is an open semi-SSTable.
type Table struct {
	mu     sync.RWMutex
	f      *device.File
	metaF  *device.File // index mirror on the performance tier, may be nil
	opts   Options
	blocks []BlockMeta // every block ever written, in file order
	live   []int       // indices of valid blocks, sorted by First key
	stale  int64       // bytes in dirty data blocks
	maxSeq uint64
	// liveBytes and liveEntries sum Handle.Size and Entries over live;
	// recomputeLive keeps them, so the planner's per-pass questions
	// (LiveBytes, DirtyRatio, NumEntries) cost a field read, not a walk.
	liveBytes   int64
	liveEntries int
	idxBytes    int64 // size of the current persisted index block

	// liveMetas is blocks[live[i]] for every i, in a slice that is never
	// written again once published: recomputeLive builds a new one. Readers
	// take the slice header under mu and use it lock-free, so a block
	// snapshot costs a pointer, not a copy; it stays readable for the life
	// of the file because blocks are only ever appended.
	liveMetas []BlockMeta

	// cachePrefix namespaces the table's page-cache keys. File offsets are
	// never recycled (blocks are only appended; a full compaction builds a
	// new generation file), so name + offset identifies a block for good.
	cachePrefix string
}

// newTable returns an empty table over f.
func newTable(f *device.File, opts Options) *Table {
	return &Table{f: f, opts: opts, cachePrefix: f.Name() + "#"}
}

// Build creates a new semi-SSTable in f from sorted entries (one version per
// user key). I/O is charged with op; flush/compaction jobs pass device.Bg.
func Build(f *device.File, opts Options, entries []Entry, op device.Op) (*Table, error) {
	opts.fill()
	t := newTable(f, opts)
	if err := t.openMetaBackup(); err != nil {
		return nil, err
	}
	if err := t.appendMerge(entries, nil, op); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Table) openMetaBackup() error {
	if t.opts.MetaBackup == nil {
		return nil
	}
	name := t.f.Name() + ".idx"
	f, err := t.opts.MetaBackup.Open(name)
	if err != nil {
		f, err = t.opts.MetaBackup.Create(name)
		if err != nil {
			return err
		}
	}
	t.metaF = f
	return nil
}

// Open reloads a semi-SSTable persisted in f. A merge appends new blocks,
// index and footer after the previous index (append-after-persist), so after
// a clean sync the newest footer sits at EOF. A crash can leave a torn tail
// — a page prefix of an unfinished merge — in which case Open scans backward
// for the newest valid (checksummed) footer and truncates the dead tail.
func Open(f *device.File, opts Options, op device.Op) (*Table, error) {
	opts.fill()
	size := f.Size()
	if size < footerSize {
		return nil, fmt.Errorf("semisst: %q too small", f.Name())
	}
	footer := make([]byte, footerSize)
	if _, err := f.ReadAt(footer, size-footerSize, op); err != nil {
		return nil, err
	}
	if idxH, sum, ok := parseFooter(footer); ok && handleWithin(idxH, size-footerSize) {
		idx := make([]byte, idxH.Size)
		if _, err := f.ReadAt(idx, int64(idxH.Offset), op); err != nil {
			return nil, err
		}
		if t, err := openFromIndex(f, opts, idx, sum); err == nil {
			return t, nil
		}
	}
	// Torn or damaged tail: read the whole file once and scan backward for
	// the newest offset that ends in a valid footer whose index matches its
	// checksum and decodes.
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0, device.Op{Background: op.Background, Sequential: true}); err != nil {
		return nil, err
	}
	for end := size; end >= footerSize; end-- {
		if binary.LittleEndian.Uint64(buf[end-8:end]) != Magic {
			continue
		}
		h, sum, ok := parseFooter(buf[end-footerSize : end])
		if !ok || !handleWithin(h, end-footerSize) {
			continue
		}
		t, err := openFromIndex(f, opts, buf[h.Offset:int64(h.Offset)+int64(h.Size)], sum)
		if err != nil {
			continue
		}
		if end < size {
			if err := f.Truncate(end); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	return nil, fmt.Errorf("semisst: no valid footer in %q", f.Name())
}

// openFromIndex builds a Table from an index block, provided it has the
// checksum its footer recorded.
func openFromIndex(f *device.File, opts Options, idx []byte, sum uint32) (*Table, error) {
	if crc32.ChecksumIEEE(idx) != sum {
		return nil, fmt.Errorf("semisst: %q index checksum mismatch", f.Name())
	}
	t := newTable(f, opts)
	t.idxBytes = int64(len(idx))
	if err := t.decodeIndex(idx); err != nil {
		return nil, err
	}
	if err := t.openMetaBackup(); err != nil {
		return nil, err
	}
	t.recomputeLive()
	return t, nil
}

// File returns the underlying device file.
func (t *Table) File() *device.File { return t.f }

// MaxSeq returns the largest sequence number stored in the table.
func (t *Table) MaxSeq() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.maxSeq
}

// Close releases the index mirror and the table's cached blocks (call when
// the table is deleted).
func (t *Table) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.blocks {
		t.uncache(&t.blocks[i])
	}
	if t.metaF != nil {
		t.opts.MetaBackup.Remove(t.metaF.Name())
		t.metaF = nil
	}
}

// recomputeLive rebuilds the sorted live-block index and publishes a fresh
// liveMetas snapshot. Caller holds mu.
func (t *Table) recomputeLive() {
	t.live = t.live[:0]
	for i := range t.blocks {
		if t.blocks[i].Valid {
			t.live = append(t.live, i)
		}
	}
	sort.Slice(t.live, func(a, b int) bool {
		return bytes.Compare(t.blocks[t.live[a]].First, t.blocks[t.live[b]].First) < 0
	})
	t.liveMetas = make([]BlockMeta, len(t.live))
	t.liveBytes, t.liveEntries = 0, 0
	for i, li := range t.live {
		t.liveMetas[i] = t.blocks[li]
		t.liveBytes += int64(t.blocks[li].Handle.Size)
		t.liveEntries += t.blocks[li].Entries
	}
}

// appendMerge marks dirtyIdx blocks invalid, appends entries as fresh blocks
// at the tail, and appends a new index and footer after the previous ones
// (append-after-persist: the old index stays durable until the new tail
// syncs, so a crash at any point leaves a recoverable table — Open falls
// back to the newest valid footer). The superseded index region becomes
// dead space, reclaimed with the dirty blocks by a full compaction. entries
// must be sorted by internal key with one version per user key, and must
// not overlap any block that remains clean.
//
// On error the merge rolls back completely: the unsynced appended tail is
// dropped and block validity restored, so the in-memory table, the durable
// file image, and a retry all agree.
func (t *Table) appendMerge(entries []Entry, dirtyIdx []int, op device.Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	var marked []int
	for _, i := range dirtyIdx {
		if i < 0 || i >= len(t.blocks) {
			return fmt.Errorf("semisst: dirty index %d out of range", i)
		}
		if t.blocks[i].Valid {
			t.blocks[i].Valid = false
			t.stale += int64(t.blocks[i].Handle.Size)
			marked = append(marked, i)
		}
	}

	start := t.f.Size()
	nBlocks := len(t.blocks)
	oldIdxBytes := t.idxBytes
	rollback := func(err error) error {
		for _, i := range marked {
			t.blocks[i].Valid = true
			t.stale -= int64(t.blocks[i].Handle.Size)
		}
		t.blocks = t.blocks[:nBlocks]
		t.idxBytes = oldIdxBytes
		// The appended tail was never synced; dropping it is safe.
		t.f.Truncate(start)
		t.recomputeLive()
		return err
	}

	bb := block.NewBuilder(0)
	var hashes []uint64    // bloom.Hash64 of the open block's keys
	var first, last []byte // its bounds; last aliases the entry until flush
	flush := func() error {
		if len(hashes) == 0 {
			return nil
		}
		content := bb.Finish()
		rawLen := len(content)
		tagged := t.opts.Codec != compress.None
		if tagged {
			content = compress.Encode(nil, t.opts.Codec, content)
		}
		if t.opts.RawBytes != nil {
			t.opts.RawBytes.Add(uint64(rawLen))
		}
		if t.opts.StoredBytes != nil {
			t.opts.StoredBytes.Add(uint64(len(content)))
		}
		off, err := t.f.Append(content)
		if err != nil {
			return err
		}
		// The filter is sized to the block's actual key count so small
		// blocks (large values) don't carry oversized filters in the index.
		filter := bloom.New(len(hashes), t.opts.BloomBitsPerKey)
		for _, h := range hashes {
			filter.AddHash(h)
		}
		t.blocks = append(t.blocks, BlockMeta{
			Handle:  Handle{Offset: uint64(off), Size: uint64(len(content))},
			First:   first,
			Last:    append([]byte(nil), last...),
			Entries: len(hashes),
			Valid:   true,
			Tagged:  tagged,
			Filter:  filter,
			Sum:     crc32.ChecksumIEEE(content),
		})
		bb.Reset()
		hashes = hashes[:0]
		return nil
	}
	for _, e := range entries {
		bb.Add(e.Key, e.Value)
		if len(hashes) == 0 {
			first = append([]byte(nil), e.Key.User...)
		}
		last = e.Key.User
		hashes = append(hashes, bloom.Hash64(e.Key.User))
		if e.Key.Seq > t.maxSeq {
			t.maxSeq = e.Key.Seq
		}
		if bb.SizeEstimate() >= t.opts.BlockSize {
			if err := flush(); err != nil {
				return rollback(err)
			}
		}
	}
	if err := flush(); err != nil {
		return rollback(err)
	}

	t.recomputeLive()
	if err := t.writeIndexLocked(op); err != nil {
		return rollback(err)
	}
	op.Sequential = true
	if err := t.f.Sync(op); err != nil {
		return rollback(err)
	}
	// Durable. The superseded index+footer (if any) is now dead file space;
	// it stays out of StaleBytes (a data-block metric) but shows up in
	// FileBytes, so space-amplification pressure still reclaims it via full
	// compaction.
	for _, i := range marked {
		t.blocks[i].Filter = nil
		t.uncache(&t.blocks[i])
	}
	return nil
}

// writeIndexLocked appends the index block and footer to the table file and
// mirrors the index to the performance tier. Caller holds mu.
func (t *Table) writeIndexLocked(op device.Op) error {
	idx := t.encodeIndexLocked()
	t.idxBytes = int64(len(idx))
	off, err := t.f.Append(idx)
	if err != nil {
		return err
	}
	if _, err := t.f.Append(encodeFooter(off, idx)); err != nil {
		return err
	}
	if t.metaF != nil {
		// The mirror is a best-effort acceleration (§3.1): when the
		// performance tier has no room for it, drop the mirror and fall
		// back to charging index reads against the capacity tier. Only the
		// planning view is mirrored — block handles, key ranges and
		// validity — because that is all compaction consults; filters and
		// checksums stay in the table's own index.
		mirror := t.encodeMirrorLocked()
		err := t.metaF.Truncate(0)
		if err == nil {
			_, err = t.metaF.Append(mirror)
		}
		if err == nil {
			mop := op
			mop.Sequential = true
			err = t.metaF.Sync(mop)
		}
		if errors.Is(err, device.ErrNoSpace) {
			t.opts.MetaBackup.Remove(t.metaF.Name())
			t.metaF = nil
		} else if err != nil {
			return err
		}
	}
	return nil
}

// encodeIndexLocked serialises maxSeq and a segment per block. Caller holds
// mu.
func (t *Table) encodeIndexLocked() []byte {
	out := binary.AppendUvarint(nil, t.maxSeq)
	out = binary.AppendUvarint(out, uint64(len(t.blocks)))
	for i := range t.blocks {
		b := &t.blocks[i]
		if !b.Valid {
			out = appendSegmentHead(out, b, 0)
			continue
		}
		if b.enc == nil {
			b.enc = encodeBlockSegment(b)
		}
		out = append(out, b.enc...)
	}
	return out
}

// encodeMirrorLocked serialises the compact planning view mirrored to the
// performance tier: per live block, its handle and key bounds. Caller holds
// mu.
func (t *Table) encodeMirrorLocked() []byte {
	out := binary.AppendUvarint(nil, uint64(len(t.live)))
	for _, li := range t.live {
		b := &t.blocks[li]
		out = binary.AppendUvarint(out, b.Handle.Offset)
		out = binary.AppendUvarint(out, b.Handle.Size)
		out = appendBytes(appendBytes(out, b.First), b.Last)
	}
	return out
}

// appendBytes appends p behind its length.
func appendBytes(out, p []byte) []byte {
	return append(binary.AppendUvarint(out, uint64(len(p))), p...)
}

// appendSegmentHead appends what every index segment starts with: handle,
// entry count, flags and bounds. The flags byte doubles as the validity
// marker: 0 dirty, 1 valid raw block, 2 valid tagged (compress-payload)
// block.
func appendSegmentHead(out []byte, b *BlockMeta, flags byte) []byte {
	out = binary.AppendUvarint(out, b.Handle.Offset)
	out = binary.AppendUvarint(out, b.Handle.Size)
	out = binary.AppendUvarint(out, uint64(b.Entries))
	out = append(out, flags)
	return appendBytes(appendBytes(out, b.First), b.Last)
}

// encodeBlockSegment serialises one valid block's index segment: the head,
// its filter and its checksum.
func encodeBlockSegment(b *BlockMeta) []byte {
	flags := byte(1)
	if b.Tagged {
		flags = 2
	}
	out := appendBytes(appendSegmentHead(nil, b, flags), b.Filter.Marshal())
	return binary.LittleEndian.AppendUint32(out, b.Sum)
}

func (t *Table) decodeIndex(idx []byte) error {
	off := 0
	getUv := func() (uint64, error) {
		v, n := binary.Uvarint(idx[off:])
		if n <= 0 {
			return 0, fmt.Errorf("semisst: truncated index")
		}
		off += n
		return v, nil
	}
	getBytes := func() ([]byte, error) {
		n, err := getUv()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(idx)-off) {
			return nil, fmt.Errorf("semisst: truncated index bytes")
		}
		b := idx[off : off+int(n)]
		off += int(n)
		return append([]byte(nil), b...), nil
	}
	maxSeq, err := getUv()
	if err != nil {
		return err
	}
	t.maxSeq = maxSeq
	nBlocks, err := getUv()
	if err != nil {
		return err
	}
	if nBlocks > uint64(len(idx)) {
		return fmt.Errorf("semisst: index claims %d blocks in %d bytes", nBlocks, len(idx))
	}
	fileSize := t.f.Size()
	t.blocks = make([]BlockMeta, 0, nBlocks)
	for i := uint64(0); i < nBlocks; i++ {
		var b BlockMeta
		if b.Handle.Offset, err = getUv(); err != nil {
			return err
		}
		if b.Handle.Size, err = getUv(); err != nil {
			return err
		}
		if !handleWithin(b.Handle, fileSize) {
			return fmt.Errorf("semisst: block %d handle outside the file", i)
		}
		e, err := getUv()
		if err != nil {
			return err
		}
		// No block decodes to more bytes than maxRawBlock, so none holds
		// more entries; Entries sizes allocations in readRun.
		if e > maxRawBlock {
			return fmt.Errorf("semisst: block %d claims %d entries", i, e)
		}
		b.Entries = int(e)
		if off >= len(idx) {
			return fmt.Errorf("semisst: truncated index validity")
		}
		switch idx[off] {
		case 0:
		case 1:
			b.Valid = true
		case 2:
			b.Valid, b.Tagged = true, true
		default:
			return fmt.Errorf("semisst: bad block flags %d", idx[off])
		}
		off++
		if b.First, err = getBytes(); err != nil {
			return err
		}
		if b.Last, err = getBytes(); err != nil {
			return err
		}
		if !b.Valid {
			t.stale += int64(b.Handle.Size)
			t.blocks = append(t.blocks, b)
			continue
		}
		fdata, err := getBytes()
		if err != nil {
			return err
		}
		if b.Filter, err = bloom.Unmarshal(fdata); err != nil {
			return err
		}
		if len(idx)-off < 4 {
			return fmt.Errorf("semisst: truncated block checksum")
		}
		b.Sum = binary.LittleEndian.Uint32(idx[off:])
		off += 4
		t.blocks = append(t.blocks, b)
	}
	return nil
}
