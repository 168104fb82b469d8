package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Values are self-describing, so every result read back can be checked
// without keeping a copy: record id, per-key version, a filler derived from
// both, and a CRC-32 of everything before it.
const (
	offID      = 0
	offVersion = 8
	offFiller  = 12
	offCRC     = valueSize - 4
)

// stamp writes the value of (id, version) into buf[:valueSize]. The engine
// copies what it is given, so callers reuse one buffer. Every other filler
// word repeats, which gives the block codec something to find (about half
// the filler) without making values trivially compressible.
func stamp(buf []byte, id, version uint32) {
	binary.LittleEndian.PutUint64(buf[offID:], uint64(id))
	binary.LittleEndian.PutUint32(buf[offVersion:], version)
	word := (uint64(id)<<32 | uint64(version)) * 0x9e3779b97f4a7c15
	for off, i := offFiller, uint64(0); off+8 <= offCRC; off, i = off+8, i+1 {
		w := word
		if i&1 == 1 {
			w = (word + i) * 0xbf58476d1ce4e5b9
		}
		binary.LittleEndian.PutUint64(buf[off:], w)
	}
	binary.LittleEndian.PutUint32(buf[offCRC:], crc32.ChecksumIEEE(buf[:offCRC]))
}

// failure classifies a result that is not the one the model expects.
type failure uint8

const (
	ok failure = iota
	failError
	failMissing
	failCorrupt
	failWrongKey
	failStale
	failScanOrder
	failScanGap
	failScanShort
	nFailures
)

var failureNames = [nFailures]string{"ok", "error", "missing", "corrupt", "wrong-key", "stale", "scan-order", "scan-gap", "scan-short"}

// checker is the model the engine's answers are held against: the latest
// acked version of every record id. A call whose result disagrees is a
// failed op; nothing is retried or forgiven. Clients own disjoint ids, so
// each gets its own tally and they share only the versions slice.
type checker struct {
	in       *inputs
	versions []uint32
}

// tally counts the calls one client attempted and how they failed.
type tally struct {
	attempted uint64
	failures  [nFailures]uint64
}

func (t *tally) note(f failure) failure {
	t.attempted++
	if f != ok {
		t.failures[f]++
	}
	return f
}

func (t *tally) failed() uint64 {
	var n uint64
	for _, c := range t.failures[1:] {
		n += c
	}
	return n
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	for i := range t.failures {
		t.failures[i] += o.failures[i]
	}
}

func newChecker(in *inputs) *checker {
	return &checker{in: in, versions: make([]uint32, len(in.keytab)/8)}
}

// parse splits a stored value into its record id and version; good is false
// when the length or the CRC is wrong.
func parse(v []byte) (id uint64, version uint32, good bool) {
	if len(v) != valueSize || crc32.ChecksumIEEE(v[:offCRC]) != binary.LittleEndian.Uint32(v[offCRC:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(v[offID:]), binary.LittleEndian.Uint32(v[offVersion:]), true
}

// value judges one point-read result: v is what the engine returned for
// record id, nil when it reported the key absent.
func (c *checker) value(id uint32, v []byte) failure {
	want := c.versions[id]
	if v == nil {
		if want == 0 {
			return ok
		}
		return failMissing
	}
	got, version, good := parse(v)
	switch {
	case !good:
		return failCorrupt
	case got != uint64(id):
		return failWrongKey
	case version != want:
		return failStale
	}
	return ok
}

// scan judges one Scan(start, limit) result of n pairs against the sorted
// key table: pairs ascend, pair i is the i-th loaded key at or after start
// and carries that key's latest value, and the result is shorter than limit
// only where the keyspace ends.
func (c *checker) scan(start []byte, limit int, n int, pair func(i int) (k, v []byte)) failure {
	sorted := c.in.sorted
	s := binary.BigEndian.Uint64(start)
	pos := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= s })
	want := len(sorted) - pos
	if want > limit {
		want = limit
	}
	for i := 1; i < n; i++ {
		prev, _ := pair(i - 1)
		if k, _ := pair(i); bytes.Compare(prev, k) >= 0 {
			return failScanOrder
		}
	}
	for i := 0; i < n; i++ {
		k, v := pair(i)
		id, version, good := parse(v)
		switch {
		case !good || len(k) != keySize:
			return failCorrupt
		case id >= uint64(len(c.versions)) || !bytes.Equal(k, c.in.key(uint32(id))):
			return failWrongKey
		case version != c.versions[id]:
			return failStale
		case i >= want || binary.BigEndian.Uint64(k) != sorted[pos+i]:
			return failScanGap
		}
	}
	if n < want {
		return failScanShort
	}
	return ok
}
