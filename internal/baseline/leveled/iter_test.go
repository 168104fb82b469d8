package leveled

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

// fullMerge materialises what a scan from the start must return: every entry
// of every table, newest version per user key, tombstones gone.
func fullMerge(t *testing.T, l *LSM) (want []Entry) {
	t.Helper()
	var all []Entry
	for _, tables := range l.levels {
		for _, tbl := range tables {
			it := tbl.sst.NewIter(device.Bg)
			for it.First(); it.Valid(); it.Next() {
				k := it.Key()
				all = append(all, Entry{
					Key:   keys.InternalKey{User: bytes.Clone(k.User), Seq: k.Seq, Kind: k.Kind},
					Value: bytes.Clone(it.Value()),
				})
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return keys.Compare(all[a].Key, all[b].Key) < 0 })
	for i, e := range all {
		if i > 0 && bytes.Equal(all[i-1].Key.User, e.Key.User) {
			continue
		}
		if e.Key.Kind != keys.KindDelete {
			want = append(want, e)
		}
	}
	return want
}

// TestScanIterMatchesFullMerge is the model check of the lazy iterator on
// the baseline: random ingests (long runs, single-block runs, tombstones,
// rewrites of earlier keys) and random compactions leave overlapping L0
// tables over sorted deeper levels, scanned from start keys before, between,
// inside and after the tables.
func TestScanIterMatchesFullMerge(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, _ := newLSM(t, 8<<10)
		seq := uint64(1)
		for round := 0; round < 12; round++ {
			n := 1 + rng.Intn(3) // a single block
			if rng.Intn(3) > 0 {
				n = 50 + rng.Intn(400)
			}
			picked := map[uint64]bool{}
			for len(picked) < n {
				picked[uint64(rng.Intn(3000))<<40] = true
			}
			run := make([]Entry, 0, n)
			for k := range picked {
				kind := keys.KindSet
				if rng.Intn(4) == 0 {
					kind = keys.KindDelete
				}
				run = append(run, Entry{
					Key:   keys.InternalKey{User: k8(k), Seq: seq, Kind: kind},
					Value: []byte(fmt.Sprintf("%x-%060d", k, seq)),
				})
				seq++
			}
			sort.Slice(run, func(a, b int) bool { return bytes.Compare(run[a].Key.User, run[b].Key.User) < 0 })
			if err := l.Ingest(run, device.Bg); err != nil {
				t.Fatal(err)
			}
			for c := rng.Intn(4); c > 0; c-- {
				if _, err := l.CompactOnce(device.Bg); err != nil {
					t.Fatal(err)
				}
			}
		}
		all := fullMerge(t, l)
		starts := [][]byte{nil, {}, k8(0), k8(^uint64(0))}
		for _, tables := range l.levels { // a table's first and last key, and the gaps beside them
			for _, tbl := range tables {
				starts = append(starts, tbl.smallest, tbl.largest, keys.Successor(tbl.largest))
			}
		}
		for i := 0; i < 8; i++ {
			starts = append(starts, all[rng.Intn(len(all))].Key.User, k8(uint64(rng.Intn(3000))<<40+1))
		}
		for _, lo := range starts {
			want := all[sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i].Key.User, lo) >= 0 }):]
			it := l.NewScanIter(lo, device.Fg)
			n := 0
			for ; it.Valid(); it.Next() {
				if n >= len(want) || !bytes.Equal(it.Key(), want[n].Key.User) || !bytes.Equal(it.Value(), want[n].Value) {
					t.Fatalf("seed %d from %x: entry %d is %x, full merge has %d entries", seed, lo, n, it.Key(), len(want))
				}
				n++
			}
			if err := it.Err(); err != nil || n != len(want) {
				t.Fatalf("seed %d from %x: %d of %d entries, err %v", seed, lo, n, len(want), err)
			}
			it.Close()
		}
	}
}
