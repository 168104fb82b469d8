package semisst

import (
	"bytes"
	"fmt"
	"sort"

	"hyperdb/internal/block"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// readRun is the background run reader: every merge, carve-out and full
// compaction fetches its blocks through it, so a compaction reads each byte
// once. The blocks are sorted by file offset, blocks adjacent or less than
// one device page apart join into an extent (blocks are cut near, not at,
// the page size, so neighbours share a page and the device would otherwise
// charge it twice), and each extent costs one sequential ReadAt into a
// buffer private to the call. The shared page cache is neither probed nor
// filled: these blocks are about to turn dirty or be deleted.
//
// metas must be in key order, as LiveBlockMetas and overlapping return them;
// the entries come back in that order. Every block, raw or tagged, must
// match its index checksum before it is decoded — keys and values alike —
// and must then hold exactly the entries its index segment counts, from
// First to Last, the whole run ascending strictly; otherwise the read fails
// closed. Values alias the private buffers and user keys one arena per run
// (the block iterator rebuilds a prefix-compressed key in place, so a key
// must be copied once; nothing else is allocated per entry). The int64 is
// what the device charged: the page-rounded extent bytes.
func (t *Table) readRun(metas []BlockMeta, op device.Op) ([]Entry, int64, error) {
	if len(metas) == 0 {
		return nil, 0, nil
	}
	op.Sequential = true
	byOff := make([]int, len(metas))
	// Capacity hints: exact when the index is honest and keys have one
	// length, bounded by the bytes fetched when it is not.
	nEntries, keyBytes := 0, 0
	for i := range metas {
		byOff[i] = i
		n := min(metas[i].Entries, int(metas[i].Handle.Size))
		nEntries += n
		keyBytes += n * len(metas[i].Last)
	}
	sort.Slice(byOff, func(a, b int) bool {
		return metas[byOff[a]].Handle.Offset < metas[byOff[b]].Handle.Offset
	})

	page := int64(t.f.PageSize())
	stored := make([][]byte, len(metas)) // each block's bytes inside its extent
	var charged int64
	for i := 0; i < len(byOff); {
		h := metas[byOff[i]].Handle
		lo, hi := int64(h.Offset), int64(h.Offset+h.Size)
		j := i + 1
		for ; j < len(byOff); j++ {
			h = metas[byOff[j]].Handle
			if int64(h.Offset)-hi >= page {
				break
			}
			if end := int64(h.Offset + h.Size); end > hi {
				hi = end
			}
		}
		buf := make([]byte, hi-lo)
		n, err := t.f.ReadAt(buf, lo, op)
		if err != nil {
			return nil, charged, err
		}
		if n > 0 {
			charged += ((lo+int64(n)-1)/page - lo/page + 1) * page
		}
		if n < len(buf) {
			return nil, charged, fmt.Errorf("semisst: %q extent [%d,%d) runs past end of file", t.f.Name(), lo, hi)
		}
		for ; i < j; i++ {
			h = metas[byOff[i]].Handle
			stored[byOff[i]] = buf[int64(h.Offset)-lo : int64(h.Offset+h.Size)-lo]
		}
	}

	out := make([]Entry, 0, nEntries)
	arena := make([]byte, 0, min(keyBytes, int(charged)))
	for i := range metas {
		bm := &metas[i]
		data := stored[i]
		if err := t.checkBlock(bm, data); err != nil {
			return nil, charged, err
		}
		if bm.Tagged {
			var err error
			if data, err = compress.Decode(data, maxRawBlock); err != nil {
				return nil, charged, err
			}
		}
		it, err := block.NewIter(data)
		if err != nil {
			return nil, charged, err
		}
		start := len(out)
		for it.First(); it.Valid(); it.Next() {
			k := it.Key()
			if len(out) > 0 && bytes.Compare(out[len(out)-1].Key.User, k.User) >= 0 {
				return nil, charged, fmt.Errorf("semisst: %q entries out of order in block at %d", t.f.Name(), bm.Handle.Offset)
			}
			if cap(arena)-len(arena) < len(k.User) {
				// Earlier keys keep the chunk they sit in.
				arena = make([]byte, 0, max(cap(arena), len(k.User)))
			}
			arena = append(arena, k.User...)
			user := arena[len(arena)-len(k.User) : len(arena) : len(arena)]
			out = append(out, Entry{Key: keys.InternalKey{User: user, Seq: k.Seq, Kind: k.Kind}, Value: it.Value()})
		}
		if err := it.Err(); err != nil {
			return nil, charged, err
		}
		run := out[start:]
		if len(run) != bm.Entries || len(run) > 0 && (!bytes.Equal(run[0].Key.User, bm.First) || !bytes.Equal(run[len(run)-1].Key.User, bm.Last)) {
			return nil, charged, fmt.Errorf("semisst: %q block at %d disagrees with its index entry count or bounds", t.f.Name(), bm.Handle.Offset)
		}
	}
	return out, charged, nil
}
