package sstable

import (
	"encoding/binary"
	"fmt"

	"hyperdb/internal/block"
	"hyperdb/internal/bloom"
	"hyperdb/internal/cache"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// maxRawBlock caps the decoded size a compressed data block may declare,
// bounding the allocation a corrupted length field can trigger.
const maxRawBlock = 16 << 20

// Reader serves lookups and scans from a finished table. The footer, index
// block and bloom filter are read once at open (charged to the device) and
// pinned in memory, modelling RocksDB's table cache. Data-block reads go
// through the optional shared page cache.
type Reader struct {
	f      *device.File
	filter *bloom.Filter
	index  []byte
	blocks []Handle // data block handles in key order
	seps   [][]byte // last user key per block, parallel to blocks
	pcache cache.BlockCache
	tagged bool // Magic2: data blocks are compress payloads
}

// OpenReader loads table metadata from f. pcache may be nil.
func OpenReader(f *device.File, pcache cache.BlockCache, op device.Op) (*Reader, error) {
	size := f.Size()
	if size < footerSize {
		return nil, fmt.Errorf("sstable: file %q too small (%d bytes)", f.Name(), size)
	}
	footer := make([]byte, footerSize)
	if _, err := f.ReadAt(footer, size-footerSize, op); err != nil {
		return nil, err
	}
	tagged := false
	switch got := binary.LittleEndian.Uint64(footer[footerSize-8:]); got {
	case Magic:
	case Magic2:
		tagged = true
	default:
		return nil, fmt.Errorf("sstable: bad magic %#x in %q", got, f.Name())
	}
	// The two handles are varint-encoded back to back at the footer start.
	filterH, err := DecodeHandle(footer)
	if err != nil {
		return nil, err
	}
	_, n1 := binary.Uvarint(footer)
	_, n2 := binary.Uvarint(footer[n1:])
	indexH, err := DecodeHandle(footer[n1+n2:])
	if err != nil {
		return nil, err
	}

	filterData := make([]byte, filterH.Size)
	if _, err := f.ReadAt(filterData, int64(filterH.Offset), op); err != nil {
		return nil, err
	}
	filter, err := bloom.Unmarshal(filterData)
	if err != nil {
		return nil, fmt.Errorf("sstable: %q filter: %w", f.Name(), err)
	}
	indexData := make([]byte, indexH.Size)
	if _, err := f.ReadAt(indexData, int64(indexH.Offset), op); err != nil {
		return nil, err
	}

	r := &Reader{f: f, filter: filter, index: indexData, pcache: pcache, tagged: tagged}
	it, err := block.NewIter(indexData)
	if err != nil {
		return nil, fmt.Errorf("sstable: %q index: %w", f.Name(), err)
	}
	for it.First(); it.Valid(); it.Next() {
		h, err := DecodeHandle(it.Value())
		if err != nil {
			return nil, err
		}
		r.blocks = append(r.blocks, h)
		r.seps = append(r.seps, append([]byte(nil), it.Key().User...))
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// readBlock fetches a data block, via the page cache when available. The
// cache holds stored (possibly compressed) bytes; Magic2 tables decompress
// after the fetch, failing closed on any corrupted payload.
func (r *Reader) readBlock(i int, op device.Op) ([]byte, error) {
	h := r.blocks[i]
	var key string
	var data []byte
	if r.pcache != nil {
		key = fmt.Sprintf("%s#%d", r.f.Name(), h.Offset)
		if cached, ok := r.pcache.Get(key); ok {
			if len(cached) != int(h.Size) {
				return nil, fmt.Errorf("sstable: cached block %s has %d bytes, want %d", key, len(cached), h.Size)
			}
			data = cached
		}
	}
	if data == nil {
		data = make([]byte, h.Size)
		if n, err := r.f.ReadAt(data, int64(h.Offset), op); err != nil {
			return nil, err
		} else if n != int(h.Size) {
			return nil, fmt.Errorf("sstable: short read %d/%d at %s+%d", n, h.Size, r.f.Name(), h.Offset)
		}
		if r.pcache != nil {
			r.pcache.Put(key, data)
		}
	}
	if r.tagged {
		return compress.Decode(data, maxRawBlock)
	}
	return data, nil
}

// blockFor returns the index of the first block whose separator >= user key,
// or -1 when the key is past the last block.
func (r *Reader) blockFor(user []byte) int {
	lo, hi := 0, len(r.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if lessBytes(r.seps[mid], user) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.blocks) {
		return -1
	}
	return lo
}

func lessBytes(a, b []byte) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Get returns the newest version of user visible at snapshot seq.
// found=false means the table holds no version; a tombstone returns
// found=true, kind=KindDelete.
func (r *Reader) Get(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, found bool, err error) {
	value, kind, _, found, err = r.GetEntry(user, seq, op)
	return value, kind, found, err
}

// GetEntry is Get plus the matched version's sequence number; crash
// recovery uses the sequence to arbitrate between an LSM version and a
// fast-tier copy of the same key.
func (r *Reader) GetEntry(user []byte, seq uint64, op device.Op) (value []byte, kind keys.Kind, entrySeq uint64, found bool, err error) {
	if !r.filter.Contains(user) {
		return nil, 0, 0, false, nil
	}
	bi := r.blockFor(user)
	if bi < 0 {
		return nil, 0, 0, false, nil
	}
	data, err := r.readBlock(bi, op)
	if err != nil {
		return nil, 0, 0, false, err
	}
	it, err := block.NewIter(data)
	if err != nil {
		return nil, 0, 0, false, err
	}
	it.SeekGE(keys.MakeSearchKey(user, seq))
	if !it.Valid() || string(it.Key().User) != string(user) {
		return nil, 0, 0, false, it.Err()
	}
	v := append([]byte(nil), it.Value()...)
	return v, it.Key().Kind, it.Key().Seq, true, nil
}

// ComputeMeta rebuilds the table's Meta by scanning every entry. The footer
// does not persist the writer's metadata, so recovery derives it here.
func (r *Reader) ComputeMeta(op device.Op) (Meta, error) {
	var m Meta
	m.TotalSize = r.f.Size()
	m.Blocks = len(r.blocks)
	for _, h := range r.blocks {
		m.DataSize += int64(h.Size)
	}
	it := r.NewIter(op)
	for it.First(); it.Valid(); it.Next() {
		k := it.Key()
		if m.Smallest == nil {
			m.Smallest = append([]byte(nil), k.User...)
		}
		m.Largest = append(m.Largest[:0], k.User...)
		if k.Seq > m.MaxSeq {
			m.MaxSeq = k.Seq
		}
		m.Entries++
	}
	if err := it.Err(); err != nil {
		return Meta{}, err
	}
	m.Largest = append([]byte(nil), m.Largest...)
	return m, nil
}

// Iter iterates the whole table in internal-key order.
type Iter struct {
	r   *Reader
	op  device.Op
	bi  int
	cur *block.Iter
	err error
}

// NewIter returns an iterator over the table. Call First or SeekGE first.
func (r *Reader) NewIter(op device.Op) *Iter {
	return &Iter{r: r, op: op, bi: -1}
}

func (it *Iter) loadBlock(i int) bool {
	if i >= len(it.r.blocks) {
		it.cur = nil
		return false
	}
	data, err := it.r.readBlock(i, it.op)
	if err != nil {
		it.err, it.cur = err, nil
		return false
	}
	b, err := block.NewIter(data)
	if err != nil {
		it.err, it.cur = err, nil
		return false
	}
	it.bi = i
	it.cur = b
	return true
}

// First positions at the table's first entry.
func (it *Iter) First() {
	if it.loadBlock(0) {
		it.cur.First()
		it.skipExhausted()
	}
}

// SeekGE positions at the first entry with internal key >= target.
func (it *Iter) SeekGE(target keys.InternalKey) {
	bi := it.r.blockFor(target.User)
	if bi < 0 {
		it.cur = nil
		return
	}
	if it.loadBlock(bi) {
		it.cur.SeekGE(target)
		it.skipExhausted()
	}
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
