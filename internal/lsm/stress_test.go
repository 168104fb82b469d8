package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
)

// TestStressMergeCompactModel hammers one tree with random migration
// batches and compactions, checking semisst invariants and a reference
// model after every step.
func TestStressMergeCompactModel(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("sata", 0))
	tree := openTree(t, Options{
		Dev:        dev,
		Ratio:      4,
		L1Segments: 2,
		FileSize:   8 << 10, // tiny: lots of compaction
		MaxLevels:  3,
		Depth:      2,
	}, Segmented)
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(31))
	seq := uint64(0)

	key := func(i int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(i)<<44)
		return b
	}

	for round := 0; round < 120; round++ {
		// Random sorted batch, like one zone demotion.
		n := 20 + rng.Intn(200)
		batch := map[int]string{}
		for i := 0; i < n; i++ {
			batch[rng.Intn(3000)] = fmt.Sprintf("r%d-%d", round, i)
		}
		ids := make([]int, 0, len(batch))
		for id := range batch {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		entries := make([]semisst.Entry, 0, len(ids))
		for _, id := range ids {
			seq++
			v := batch[id]
			entries = append(entries, semisst.Entry{
				Key:   keys.InternalKey{User: key(id), Seq: seq, Kind: keys.KindSet},
				Value: []byte(v),
			})
			ref[string(key(id))] = v
		}
		if err := tree.Ingest(entries, device.Bg); err != nil {
			t.Fatalf("round %d merge: %v", round, err)
		}
		if err := tree.checkAllInvariants(); err != nil {
			t.Fatalf("round %d after merge: %v", round, err)
		}
		for {
			did, err := tree.Compact(device.Bg)
			if err != nil {
				t.Fatalf("round %d compact: %v", round, err)
			}
			if !did {
				break
			}
		}
		if err := tree.checkAllInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Spot-check the model.
		for k, want := range ref {
			if rng.Intn(20) != 0 {
				continue
			}
			v, kind, _, found, err := tree.Get([]byte(k), keys.MaxSeq, device.Fg)
			if err != nil || !found || kind != keys.KindSet || string(v) != want {
				t.Fatalf("round %d get %x: %q %v %v %v (want %q)", round, k, v, kind, found, err, want)
			}
		}
	}
	// Full final verification including scan order.
	it := tree.NewScanIter(nil, device.Fg)
	defer it.Close()
	var prev []byte
	seen := 0
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("scan out of order")
		}
		if want := ref[string(it.Key())]; want != string(it.Value()) {
			t.Fatalf("scan %x: %q want %q", it.Key(), it.Value(), want)
		}
		prev = append(prev[:0], it.Key()...)
		seen++
	}
	if seen != len(ref) {
		t.Fatalf("scan saw %d keys, ref has %d", seen, len(ref))
	}
}

// checkAllInvariants validates every table in the tree, and that none is
// past TClean: merges compact at merge time, and what a carve-out alone
// leaves over-dirty the compaction loop has rewritten by the time the
// callers look.
func (t *Tree) checkAllInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for level, tables := range t.levels {
		for _, tb := range tables {
			if err := tb.sst.CheckInvariants(); err != nil {
				return fmt.Errorf("L%d seg %d: %w", level, tb.seg, err)
			}
			if r := tb.sst.DirtyRatio(); r > t.opts.TClean {
				return fmt.Errorf("L%d seg %d: dirty ratio %.3f past TClean %.2f", level, tb.seg, r, t.opts.TClean)
			}
		}
	}
	return nil
}

// TestStressWithDeletes mixes tombstones into the batches.
func TestStressWithDeletes(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("sata", 0))
	tree := openTree(t, Options{
		Dev: dev, Ratio: 4, L1Segments: 2,
		FileSize: 8 << 10, MaxLevels: 3, Depth: 2,
	}, Segmented)
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(77))
	seq := uint64(0)
	key := func(i int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(i)<<44)
		return b
	}
	for round := 0; round < 80; round++ {
		type op struct {
			del bool
			val string
		}
		batch := map[int]op{}
		for i := 0; i < 100; i++ {
			id := rng.Intn(1500)
			if rng.Intn(4) == 0 {
				batch[id] = op{del: true}
			} else {
				batch[id] = op{val: fmt.Sprintf("r%d-%d", round, i)}
			}
		}
		ids := make([]int, 0, len(batch))
		for id := range batch {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var entries []semisst.Entry
		for _, id := range ids {
			seq++
			o := batch[id]
			if o.del {
				entries = append(entries, semisst.Entry{
					Key: keys.InternalKey{User: key(id), Seq: seq, Kind: keys.KindDelete},
				})
				delete(ref, string(key(id)))
			} else {
				entries = append(entries, semisst.Entry{
					Key:   keys.InternalKey{User: key(id), Seq: seq, Kind: keys.KindSet},
					Value: []byte(o.val),
				})
				ref[string(key(id))] = o.val
			}
		}
		if err := tree.Ingest(entries, device.Bg); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tree.checkAllInvariants(); err != nil {
			t.Fatalf("round %d after merge: %v", round, err)
		}
		for {
			did, err := tree.Compact(device.Bg)
			if err != nil {
				t.Fatalf("round %d compact: %v", round, err)
			}
			if !did {
				break
			}
		}
		if err := tree.checkAllInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for k, want := range ref {
		v, kind, _, found, err := tree.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found || kind == keys.KindDelete || string(v) != want {
			t.Fatalf("get %x: %q %v %v %v want %q", k, v, kind, found, err, want)
		}
	}
	// Deleted keys: either absent or shadowed by a newer tombstone.
	deleted := 0
	for i := 0; i < 1500; i++ {
		k := key(i)
		if _, ok := ref[string(k)]; ok {
			continue
		}
		_, kind, _, found, _ := tree.Get(k, keys.MaxSeq, device.Fg)
		if found && kind != keys.KindDelete {
			t.Fatalf("deleted key %d resurrected", i)
		}
		deleted++
	}
	if deleted == 0 {
		t.Fatal("test exercised no deletions")
	}
}
