package btree

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// benchVal is the size of zone.Location, the value the engine's index holds.
type benchVal [3]uint64

// benchIndexes are the trees BenchmarkIndexGet/Ref probe: one partition's
// worth of the benchmark's 8-byte keys (75 k), a whole 600 k keyspace in one
// tree, and 600 k 24-byte keys in groups of 8 sharing their first 8 bytes —
// every probe inside a group is a prefix tie, so the row prices the fallback
// to bytes.Compare.
var benchIndexes = []struct {
	name          string
	n, keyLen, by int
}{
	{"8B-75k", 75_000, 8, 1},
	{"8B-600k", 600_000, 8, 1},
	{"24B-tied-600k", 600_000, 24, 8},
}

// benchTrees keeps each built tree across the b.N calibration calls.
var benchTrees = map[string]struct {
	m    *Map[benchVal]
	keys [][]byte
}{}

func benchIndex(b *testing.B, probe func(m *Map[benchVal], k []byte) bool) {
	for _, bi := range benchIndexes {
		b.Run(bi.name, func(b *testing.B) {
			bt, ok := benchTrees[bi.name]
			if !ok {
				rng := rand.New(rand.NewSource(20))
				bt.m = New[benchVal]()
				var pfx uint64
				for i := 0; i < bi.n; i++ {
					if i%bi.by == 0 {
						pfx = rng.Uint64()
					}
					k := make([]byte, bi.keyLen)
					binary.BigEndian.PutUint64(k, pfx)
					rng.Read(k[8:])
					bt.m.Set(k, benchVal{uint64(i)})
					bt.keys = append(bt.keys, k)
				}
				rng.Shuffle(len(bt.keys), func(i, j int) { bt.keys[i], bt.keys[j] = bt.keys[j], bt.keys[i] })
				benchTrees[bi.name] = bt
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !probe(bt.m, bt.keys[i%len(bt.keys)]) {
					b.Fatalf("key %x missing", bt.keys[i%len(bt.keys)])
				}
			}
		})
	}
}

func BenchmarkIndexGet(b *testing.B) {
	benchIndex(b, func(m *Map[benchVal], k []byte) bool { _, ok := m.Get(k); return ok })
}

func BenchmarkIndexRef(b *testing.B) {
	benchIndex(b, func(m *Map[benchVal], k []byte) bool { return m.Ref(k) != nil })
}

// BenchmarkIndexSet builds one partition's index, 75 k random 8-byte keys,
// per iteration, and reports ns and allocated bytes per Set. Random order
// splits leaves mid-array and refills both halves, which the in-order
// BenchmarkBTreeSet never does.
func BenchmarkIndexSet(b *testing.B) {
	const n = 75_000
	keys := make([]byte, 8*n)
	rand.New(rand.NewSource(20)).Read(keys)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New[benchVal]()
		for j := 0; j < len(keys); j += 8 {
			m.Set(keys[j:j+8], benchVal{})
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	sets := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sets, "ns/key")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/sets, "B/key")
}
