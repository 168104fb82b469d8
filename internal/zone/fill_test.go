package zone

import (
	"bytes"
	"testing"

	"hyperdb/internal/cache"
	"hyperdb/internal/device"
	"hyperdb/internal/slot"
)

// TestFillDroppedWhenAWriteLandsFirst: a point read that misses the cache
// reads k's slot, and before it can cache what it read a write of k lands —
// fillHook runs the write in that window. The read's version is no longer the
// newest, so the fill must be dropped: the next Get answers with the write.
// A removal that lands there must be honoured too, also after a later put of
// k that, new to the tier, refreshes nothing.
func TestFillDroppedWhenAWriteLandsFirst(t *testing.T) {
	v2 := bytes.Repeat([]byte{2}, 20)
	cases := []struct {
		name     string
		promoted bool // k enters the tier as a promoted copy, not a put
		window   func(t *testing.T, f *loadFixture)
		putAfter bool      // k is put again, at 4, once the read returns
		want     GetResult // what the next Get answers
	}{
		{name: "update in place", window: func(t *testing.T, f *loadFixture) {
			f.put(t, f.k, v2, 3)
		}, want: GetResult{Value: v2, Seq: 3, Found: true}},
		{name: "delete", window: func(t *testing.T, f *loadFixture) {
			if err := deleteOne(f.m, f.k, 3); err != nil {
				t.Fatal(err)
			}
		}, want: GetResult{Seq: 3, Tombstone: true, Found: true}},
		{name: "demotion", window: func(t *testing.T, f *loadFixture) {
			b, err := f.m.PrepareMigration(f.m.zoneByID[f.loc0.ZoneID])
			if err != nil || b == nil {
				t.Fatalf("migration batch %+v, %v", b, err)
			}
			f.m.CommitMigration(b)
		}, want: GetResult{}},
		{name: "demotion, then a put", window: func(t *testing.T, f *loadFixture) {
			b, err := f.m.PrepareMigration(f.m.zoneByID[f.loc0.ZoneID])
			if err != nil || b == nil {
				t.Fatalf("migration batch %+v, %v", b, err)
			}
			f.m.CommitMigration(b)
		}, putAfter: true, want: GetResult{Value: v2, Seq: 4, Found: true}},
		{name: "hot-zone drop, then a put", promoted: true, window: func(t *testing.T, f *loadFixture) {
			if err := f.m.EvictHotZone(func([]byte) bool { return false }); err != nil {
				t.Fatal(err)
			}
			if f.m.Stats().HotEvictDropped != 1 {
				t.Fatalf("the eviction did not drop the promoted copy: %+v", f.m.Stats())
			}
		}, putAfter: true, want: GetResult{Value: v2, Seq: 4, Found: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newLoadFixture(t)
			k := f.k
			if tc.promoted {
				k = k8(9)
				if err := f.m.Promote(k, f.v1, 5, 2); err != nil {
					t.Fatal(err)
				}
				f.m.uncacheObject(k) // so the read below goes to the slot
			}
			ran := 0
			fillHook = func() {
				if ran++; ran == 1 {
					tc.window(t, f)
				}
			}
			defer func() { fillHook = nil }()
			r, err := f.m.get(k, device.Fg)
			if err != nil || !bytes.Equal(r.Value, f.v1) || ran != 1 {
				t.Fatalf("the read: %+v, %v, hook ran %d times; want v1 from the slot, the hook once", r, err, ran)
			}
			fillHook = nil
			if tc.putAfter {
				f.put(t, k, v2, 4)
			}
			for i := 0; i < 2; i++ { // a fill by the first read must be the newest too
				r, err = f.m.get(k, device.Fg)
				if err != nil || !bytes.Equal(r.Value, tc.want.Value) || r.Seq != tc.want.Seq || r.Tombstone != tc.want.Tombstone || r.Found != tc.want.Found {
					t.Fatalf("Get %d after the race: %+v, %v; want %+v", i+1, r, err, tc.want)
				}
			}
		})
	}
}

// TestScanFillDroppedWhenAWriteLandsFirst: a scan takes its Locations under
// the index lock but reads them after, through a memo that can hold a page
// from before a write. Whether the write lands between the walk and the read
// or between the read and the fill, the scan still returns the version it
// took, and must not cache it: the next Get answers with the write.
func TestScanFillDroppedWhenAWriteLandsFirst(t *testing.T) {
	v2 := bytes.Repeat([]byte{2}, 20)
	for _, inWindow := range []bool{false, true} {
		f := newLoadFixture(t)
		memo := make(slot.Pages)
		if v, err := f.m.ReadAt(f.n, f.nloc, device.Fg, memo); err != nil || !bytes.Equal(v, f.v1) {
			t.Fatalf("neighbour: %q, %v", v, err)
		}
		write := func() { f.put(t, f.k, v2, 3) } // in place: the memo's page is now stale
		if inWindow {
			fillHook = write
		} else {
			write()
		}
		v, err := f.m.ReadAt(f.k, f.loc0, device.Fg, memo)
		fillHook = nil
		if err != nil || !bytes.Equal(v, f.v1) {
			t.Fatalf("write in the window %v: ReadAt %q, %v; want the version the scan took, from its page", inWindow, v, err)
		}
		if r, err := f.m.get(f.k, device.Fg); err != nil || !bytes.Equal(r.Value, v2) || r.Seq != 3 {
			t.Fatalf("write in the window %v: Get after the scan: %+v, %v; want v2 at 3", inWindow, r, err)
		}
	}
}

// TestTierMissIsNotCounted: the cache is asked before the index, so a Get of
// a key the tier does not hold asks it too — and must leave its tallies as
// they were, for the key may be the capacity tier's, whose reads the object
// cache never counted. A key the index holds is counted once, hit or miss.
func TestTierMissIsNotCounted(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	c := cache.NewLRU(1<<20, nil)
	m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, Cache: c})
	if err := putOne(m, k8(1), []byte("v"), 1, false); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct{ hits, misses uint64 }{{0, 0}, {0, 1}, {1, 1}} {
		if i > 0 {
			if _, _, _, found, err := m.Get(k8(1), device.Fg); err != nil || !found {
				t.Fatalf("Get %d of the tier's key: %v, %v", i, found, err)
			}
		}
		if _, _, _, found, err := m.Get(k8(2), device.Fg); err != nil || found {
			t.Fatalf("Get of a key the tier does not hold: found %v, %v", found, err)
		}
		if u := c.Usage(); u.Hits != want.hits || u.Misses != want.misses {
			t.Fatalf("after %d Gets of the tier's key: %d hits, %d misses; want %d, %d", i, u.Hits, u.Misses, want.hits, want.misses)
		}
	}
}
