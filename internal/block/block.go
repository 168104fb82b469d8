// Package block implements the prefix-compressed sorted block format shared
// by classic SSTables and semi-SSTables. Entries are (internal key, value)
// pairs sorted by internal key; keys share prefixes with their predecessor
// and restart points every N entries allow binary search.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperdb/internal/keys"
)

// DefaultRestartInterval matches LevelDB's default.
const DefaultRestartInterval = 16

// ErrMalformed reports an undecodable block.
var ErrMalformed = errors.New("block: malformed")

// Builder assembles one block. Keys must be added in strictly increasing
// internal-key order.
type Builder struct {
	buf             []byte
	restarts        []uint32
	restartInterval int
	counter         int
	count           int
	lastKey         []byte
	scratch         []byte // the next key's encoding; swapped with lastKey
	firstUser       []byte
	lastUser        []byte
}

// NewBuilder returns a builder with the given restart interval (0 = default).
func NewBuilder(restartInterval int) *Builder {
	if restartInterval <= 0 {
		restartInterval = DefaultRestartInterval
	}
	return &Builder{restartInterval: restartInterval}
}

// Reset clears the builder for reuse.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.count = 0
	b.lastKey = b.lastKey[:0]
	b.firstUser = nil
	b.lastUser = nil
}

// Count returns the number of entries added since the last Reset.
func (b *Builder) Count() int { return b.count }

// SizeEstimate returns the encoded size if Finish were called now.
func (b *Builder) SizeEstimate() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// FirstUserKey and LastUserKey bound the entries added so far.
func (b *Builder) FirstUserKey() []byte { return b.firstUser }
func (b *Builder) LastUserKey() []byte  { return b.lastUser }

// Add appends an entry. ikey must sort after every previously added key.
func (b *Builder) Add(ikey keys.InternalKey, value []byte) {
	enc := ikey.Encode(b.scratch[:0])
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(enc) < n {
			n = len(enc)
		}
		for shared < n && b.lastKey[shared] == enc[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	var tmp [binary.MaxVarintLen32]byte
	for _, v := range []int{shared, len(enc) - shared, len(value)} {
		n := binary.PutUvarint(tmp[:], uint64(v))
		b.buf = append(b.buf, tmp[:n]...)
	}
	b.buf = append(b.buf, enc[shared:]...)
	b.buf = append(b.buf, value...)

	b.lastKey, b.scratch = enc, b.lastKey
	if b.firstUser == nil {
		b.firstUser = append([]byte(nil), ikey.User...)
	}
	b.lastUser = append(b.lastUser[:0], ikey.User...)
	b.counter++
	b.count++
}

// Finish appends the restart array and entry count, returning the block.
// The returned slice is owned by the caller; the builder may be reused
// after Reset.
func (b *Builder) Finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	out := make([]byte, len(b.buf), len(b.buf)+4*len(b.restarts)+8)
	copy(out, b.buf)
	var tmp [4]byte
	for _, r := range b.restarts {
		binary.LittleEndian.PutUint32(tmp[:], r)
		out = append(out, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.restarts)))
	out = append(out, tmp[:]...)
	return out
}

// Iter iterates a finished block in sorted order.
type Iter struct {
	data     []byte // entries only (restart trailer stripped)
	restarts []uint32
	off      int // offset of current entry; len(data) = exhausted
	nextOff  int
	key      []byte
	value    []byte
	valid    bool
	err      error
}

// NewIter opens a finished block for iteration.
func NewIter(data []byte) (*Iter, error) {
	if len(data) < 4 {
		return nil, ErrMalformed
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	trailer := 4 + 4*n
	if n < 1 || trailer > len(data) {
		return nil, fmt.Errorf("%w: bad restart count %d", ErrMalformed, n)
	}
	it := &Iter{
		data:     data[:len(data)-trailer],
		restarts: make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		it.restarts[i] = binary.LittleEndian.Uint32(data[len(data)-trailer+4*i:])
		if int(it.restarts[i]) > len(it.data) {
			return nil, fmt.Errorf("%w: restart %d out of range", ErrMalformed, i)
		}
	}
	return it, nil
}

// Err returns the first decoding error encountered.
func (it *Iter) Err() error { return it.err }

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.valid }

// Key returns the current internal key (decoded view into the iterator's
// scratch buffer — copy before the next move if retained).
func (it *Iter) Key() keys.InternalKey {
	ik, _ := keys.DecodeInternalKey(it.key)
	return ik
}

// Value returns the current value (view into the block data).
func (it *Iter) Value() []byte { return it.value }

// First positions at the first entry.
func (it *Iter) First() {
	it.off = 0
	it.nextOff = 0
	it.key = it.key[:0]
	it.parseNext()
}

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.valid {
		return
	}
	it.parseNext()
}

// parseNext decodes the entry at nextOff.
func (it *Iter) parseNext() {
	it.valid = false
	if it.nextOff >= len(it.data) {
		return
	}
	off := it.nextOff
	shared, n1 := binary.Uvarint(it.data[off:])
	if n1 <= 0 {
		it.err = ErrMalformed
		return
	}
	off += n1
	unshared, n2 := binary.Uvarint(it.data[off:])
	if n2 <= 0 {
		it.err = ErrMalformed
		return
	}
	off += n2
	vlen, n3 := binary.Uvarint(it.data[off:])
	if n3 <= 0 {
		it.err = ErrMalformed
		return
	}
	off += n3
	if int(shared) > len(it.key) || off+int(unshared)+int(vlen) > len(it.data) {
		it.err = ErrMalformed
		return
	}
	it.key = append(it.key[:shared], it.data[off:off+int(unshared)]...)
	off += int(unshared)
	it.value = it.data[off : off+int(vlen)]
	it.off = it.nextOff
	it.nextOff = off + int(vlen)
	it.valid = true
}

// SeekGE positions at the first entry with internal key >= target.
func (it *Iter) SeekGE(target keys.InternalKey) {
	// Binary-search restart points for the last restart whose key < target.
	lo, hi := 0, len(it.restarts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.nextOff = int(it.restarts[mid])
		it.key = it.key[:0]
		it.parseNext()
		if !it.valid {
			hi = mid - 1
			continue
		}
		if keys.Compare(it.Key(), target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.nextOff = int(it.restarts[lo])
	it.key = it.key[:0]
	for it.parseNext(); it.valid; it.parseNext() {
		if keys.Compare(it.Key(), target) >= 0 {
			return
		}
	}
}

// Count returns the total number of entries by scanning; used in tests and
// compaction statistics, not on hot paths.
func Count(data []byte) (int, error) {
	it, err := NewIter(data)
	if err != nil {
		return 0, err
	}
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	return n, it.Err()
}
