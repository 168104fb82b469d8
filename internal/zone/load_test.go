package zone

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperdb/internal/cache"
	"hyperdb/internal/device"
)

// loadFixture is a manager holding two neighbours on one slot page — n at
// sequence 1, k at sequence 2 — and the Location of k a scan took then.
type loadFixture struct {
	m    *Manager
	dev  *device.Device
	n, k []byte
	v1   []byte
	nloc Location
	loc0 Location
	p0   []byte // k's page as it was when loc0 was taken
}

func newLoadFixture(t *testing.T) *loadFixture {
	t.Helper()
	f := &loadFixture{n: k8(1), k: k8(2), v1: bytes.Repeat([]byte{1}, 20)}
	f.dev = device.New(device.UnthrottledProfile("nvme", 0))
	f.m = openMgr(t, Config{Dev: f.dev, BatchSize: 64 << 10, Cache: cache.NewLRU(1<<20, nil)})
	f.put(t, f.n, f.v1, 1)
	f.put(t, f.k, f.v1, 2)
	f.m.Scan(nil, nil, func(key []byte, loc Location) bool {
		if bytes.Equal(key, f.k) {
			f.loc0 = loc
		} else {
			f.nloc = loc
		}
		return true
	})
	if f.loc0.Seq != 2 || f.nloc.Class != f.loc0.Class || f.nloc.Page != f.loc0.Page {
		t.Fatalf("fixture: k at %+v, n at %+v — want one page", f.loc0, f.nloc)
	}
	f.p0 = f.page(t)
	return f
}

func (f *loadFixture) put(t *testing.T, key, value []byte, seq uint64) {
	t.Helper()
	if err := f.m.Put(key, value, seq, false, false); err != nil {
		t.Fatal(err)
	}
}

// page reads loc0's page off the device.
func (f *loadFixture) page(t *testing.T) []byte {
	t.Helper()
	p, err := f.m.slotFiles[f.loc0.Class].readPage(f.loc0.Page, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadRule drives the tier's one slot reader through every way a Location
// goes stale, single-threaded: a Location is taken, the object is mutated,
// the cache (or a scan's page memo) is left without the page, with the
// page as the device now has it, or with the page as it was — and each reader
// must answer by the rule (key and sequence match, or the slot is not the
// object) at an exact price in device reads. ReadAt and ScanReader.Read answer
// for the Location: its version or ErrMoved. Get and GetBatch answer for the
// key: the index's newest version, a tombstone only for a deleted key, or no
// opinion once the key has left the tier. Only Get and GetBatch heat the zone.
func TestLoadRule(t *testing.T) {
	v2 := bytes.Repeat([]byte{2}, 20)   // same class as v1: updated in place
	big := bytes.Repeat([]byte{3}, 200) // another class: relocated
	const moved, none, tomb = "moved", "none", "tomb"
	mutations := []struct {
		name   string
		mutate func(t *testing.T, f *loadFixture)
		// readAt is what loc0 resolves to when neither cache nor memo holds
		// the old page; get is what the key resolves to and getReads what a
		// Get costs with the page cache cold.
		readAt   string
		get      string
		getSeq   uint64
		getReads uint64
	}{
		{"nothing", func(t *testing.T, f *loadFixture) {}, "v1", "v1", 2, 1},
		{"update in place", func(t *testing.T, f *loadFixture) {
			f.put(t, f.k, v2, 3)
			if got := f.m.Stats().InPlaceUpdates; got != 1 {
				t.Fatalf("fixture: %d in-place updates", got)
			}
		}, moved, "v2", 3, 1},
		{"resize", func(t *testing.T, f *loadFixture) {
			f.put(t, f.k, big, 3) // leaves a marker tombstone in loc0's slot
			if got := f.m.Stats().Relocations; got != 1 {
				t.Fatalf("fixture: %d relocations", got)
			}
		}, moved, "big", 3, 1},
		{"resize, old slot reused", func(t *testing.T, f *loadFixture) {
			f.put(t, f.k, big, 3)
			f.put(t, k8(3), f.v1, 4)
			if loc, _ := f.m.index.Get(k8(3)); loc.Page != f.loc0.Page || loc.Slot != f.loc0.Slot {
				t.Fatalf("fixture: the new key went to %+v, not into the freed slot", loc)
			}
		}, moved, "big", 3, 1},
		{"demotion", func(t *testing.T, f *loadFixture) {
			b, err := f.m.PrepareMigration(f.m.zoneByID[f.loc0.ZoneID])
			if err != nil || len(b.Entries) != 2 {
				t.Fatalf("fixture: migration batch %+v, %v", b, err)
			}
			f.m.CommitMigration(b) // the page is freed: it reads back as zeros
		}, moved, none, 0, 0},
		{"delete", func(t *testing.T, f *loadFixture) {
			if err := f.m.Delete(f.k, 3); err != nil {
				t.Fatal(err)
			}
		}, moved, tomb, 3, 0},
	}
	// What the page cache holds for loc0's page when the read starts.
	const (
		absent = iota
		fresh  // the page as the device has it now
		stale  // the page as it was when loc0 was taken
	)
	values := map[string][]byte{"v1": bytes.Repeat([]byte{1}, 20), "v2": v2, "big": big}

	for _, mu := range mutations {
		for state, stateName := range []string{"absent", "fresh", "stale"} {
			name := mu.name + ", page " + stateName + ": "
			// setup builds the case up to the moment of the read and returns
			// a device-read meter.
			setup := func(t *testing.T) (*loadFixture, func() uint64) {
				f := newLoadFixture(t)
				mu.mutate(t, f)
				ck := f.m.cacheKey(int(f.loc0.Class), f.loc0.Page)
				switch state {
				case absent:
					f.m.cfg.Cache.Delete(ck)
				case fresh:
					f.m.cfg.Cache.Put(ck, f.page(t))
				case stale:
					f.m.cfg.Cache.Put(ck, f.p0)
				}
				before := f.dev.Counters().ReadOps.Load()
				return f, func() uint64 { return f.dev.Counters().ReadOps.Load() - before }
			}
			// A page that still shows loc0's version — cached before the
			// mutation, or never mutated — serves it without the device; any
			// other page costs exactly one device read.
			servesOld := state == stale || mu.readAt == "v1" && state == fresh
			checkLoc := func(t *testing.T, got []byte, err error, reads uint64) {
				t.Helper()
				switch {
				case servesOld:
					if err != nil || !bytes.Equal(got, values["v1"]) || reads != 0 {
						t.Fatalf("got %q, %v after %d device reads; want loc0's version from the page in hand", got, err, reads)
					}
				case mu.readAt == moved:
					if !errors.Is(err, ErrMoved) || reads != 1 {
						t.Fatalf("got %q, %v after %d device reads; want ErrMoved after one", got, err, reads)
					}
				default:
					if err != nil || !bytes.Equal(got, values[mu.readAt]) || reads != 1 {
						t.Fatalf("got %q, %v after %d device reads; want %s after one", got, err, reads, mu.readAt)
					}
				}
			}
			t.Run(name+"ReadAt", func(t *testing.T) {
				f, reads := setup(t)
				got, err := f.m.ReadAt(f.k, f.loc0, device.Fg)
				checkLoc(t, got, err, reads())
				if z := f.m.zoneByID[f.loc0.ZoneID]; z != nil && z.ReadIOs() != 0 {
					t.Fatalf("a scan read heated the zone: readIOs %d", z.ReadIOs())
				}
			})
			t.Run(name+"ScanReader", func(t *testing.T) {
				// Without the page in its memo the scan reader is ReadAt.
				f, reads := setup(t)
				got, err := f.m.NewScanReader().Read(f.k, f.loc0, device.Fg)
				checkLoc(t, got, err, reads())
			})

			// Get answers for the key. It pays for the page the index names
			// now: loc0's page unless the object relocated, and that page is
			// in the cache only if this case put its current image there.
			wantReads := mu.getReads
			if state == fresh && (mu.get == "v1" || mu.get == "v2") {
				wantReads = 0
			}
			if state == stale && mu.get == "v1" {
				wantReads = 0
			}
			checkKey := func(t *testing.T, r GetResult, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				want := GetResult{Value: values[mu.get], Seq: mu.getSeq, Tombstone: mu.get == tomb, Found: mu.get != none}
				if !bytes.Equal(r.Value, want.Value) || r.Seq != want.Seq || r.Tombstone != want.Tombstone || r.Found != want.Found {
					t.Fatalf("got %+v, want %+v", r, want)
				}
			}
			heat := func(f *loadFixture) (n uint64) {
				for _, z := range f.m.zoneByID {
					n += uint64(z.ReadIOs())
				}
				return n
			}
			t.Run(name+"Get", func(t *testing.T) {
				f, reads := setup(t)
				v, seq, tombstone, found, err := f.m.Get(f.k, device.Fg)
				checkKey(t, GetResult{v, seq, tombstone, found}, err)
				if got := reads(); got != wantReads || heat(f) != wantReads {
					t.Fatalf("%d device reads, readIOs %d; want %d of each", got, heat(f), wantReads)
				}
			})
			t.Run(name+"GetBatch", func(t *testing.T) {
				// The neighbour goes first and leaves its page in the memo
				// for k — the stale image, if that is what the cache held.
				f, reads := setup(t)
				res, err := f.m.GetBatch([][]byte{f.n, f.k}, device.Fg)
				if err != nil {
					t.Fatal(err)
				}
				checkKey(t, res[1], nil)
				if mu.get != none && (!res[0].Found || !bytes.Equal(res[0].Value, f.v1)) {
					t.Fatalf("neighbour: %+v", res[0])
				}
				// One read of the shared page serves both keys; a relocated
				// k costs a second page, and a stale shared page is re-read
				// only if k still lives on it.
				want := wantReads
				if state == absent && (mu.get == "big" || mu.get == tomb) {
					want++
				}
				if got := reads(); got != want || heat(f) != want {
					t.Fatalf("%d device reads, readIOs %d; want %d of each", got, heat(f), want)
				}
			})
		}

		t.Run(mu.name+", page in the scan memo: ScanReader", func(t *testing.T) {
			// A scan that has read the neighbour keeps the page as it was.
			f := newLoadFixture(t)
			r := f.m.NewScanReader()
			if _, err := r.Read(f.n, f.nloc, device.Fg); err != nil {
				t.Fatal(err)
			}
			mu.mutate(t, f)
			before := f.dev.Counters().ReadOps.Load()
			got, err := r.Read(f.k, f.loc0, device.Fg)
			if reads := f.dev.Counters().ReadOps.Load() - before; err != nil || !bytes.Equal(got, f.v1) || reads != 0 {
				t.Fatalf("got %q, %v after %d device reads; want loc0's version from the memo", got, err, reads)
			}
		})

		t.Run(mu.name+", value cache on: Get", func(t *testing.T) {
			// Writes do not fill the cache (no-write-allocate), reads do:
			//
			//	cached before the mutation by | first Get   | second Get
			//	a Get                         | 0 reads     | 0 reads
			//	nothing (bare Puts)           | getReads    | 0 reads
			//
			// A cached object follows its key through every mutation: an
			// update or a resize refreshes it, a delete or a demotion drops it.
			for _, seeded := range []bool{true, false} {
				f := newLoadFixture(t)
				if seeded {
					if _, _, _, found, err := f.m.Get(f.k, device.Fg); err != nil || !found {
						t.Fatalf("seeding Get: found=%v err=%v", found, err)
					}
				}
				mu.mutate(t, f)
				for attempt, want := range []uint64{mu.getReads, 0} {
					if seeded {
						want = 0
					}
					before := f.dev.Counters().ReadOps.Load()
					v, seq, tombstone, found, err := f.m.Get(f.k, device.Fg)
					if err != nil || found != (mu.get != none) || tombstone != (mu.get == tomb) || seq != mu.getSeq || !bytes.Equal(v, values[mu.get]) {
						t.Fatalf("Get: %q seq=%d tomb=%v found=%v err=%v; want %s at %d", v, seq, tombstone, found, err, mu.get, mu.getSeq)
					}
					if reads := f.dev.Counters().ReadOps.Load() - before; reads != want {
						t.Fatalf("seeded=%v, Get %d: %d device reads, want %d", seeded, attempt+1, reads, want)
					}
				}
			}
		})
	}
}

// TestReadersNeverLoseALiveKey: one writer rewrites one key without pause,
// alternating updates in place with resizes, while readers poll it through
// every read path. The key exists throughout, so no reader may ever miss it
// or see a tombstone; a Location a scan took may have moved (ErrMoved), and
// then a Get must find the key.
func TestReadersNeverLoseALiveKey(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, Cache: cache.NewLRU(1<<20, nil)})
	key := k8(7 << 40)
	vals := [][]byte{bytes.Repeat([]byte{1}, 20), bytes.Repeat([]byte{2}, 20), bytes.Repeat([]byte{3}, 200)}
	legal := func(v []byte) bool {
		for _, want := range vals {
			if bytes.Equal(v, want) {
				return true
			}
		}
		return false
	}
	for i := uint64(0); i < 64; i++ { // neighbours, so pages are shared
		if err := m.Put(k8(7<<40|i), vals[0], i+1, false, false); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Uint64
	reader := func(read func() (v []byte, found, tomb bool, err error)) {
		defer wg.Done()
		for !stop.Load() {
			v, found, tomb, err := read()
			reads.Add(1)
			if err != nil || !found || tomb || !legal(v) {
				t.Errorf("read %d: value %q found=%v tombstone=%v err=%v", reads.Load(), v, found, tomb, err)
				stop.Store(true)
			}
		}
	}
	get := func() ([]byte, bool, bool, error) {
		v, _, tomb, found, err := m.Get(key, device.Fg)
		return v, found, tomb, err
	}
	wg.Add(3)
	go reader(get)
	go reader(func() ([]byte, bool, bool, error) {
		res, err := m.GetBatch([][]byte{k8(7<<40 | 1), key}, device.Fg)
		if err != nil {
			return nil, false, false, err
		}
		return res[1].Value, res[1].Found, res[1].Tombstone, nil
	})
	go reader(func() ([]byte, bool, bool, error) {
		var loc Location
		found := false
		m.Scan(key, nil, func(k []byte, l Location) bool {
			loc, found = l, bytes.Equal(k, key)
			return false
		})
		if !found || loc.Tombstone {
			return nil, found, loc.Tombstone, nil
		}
		v, err := m.ReadAt(key, loc, device.Fg)
		if errors.Is(err, ErrMoved) {
			return get()
		}
		return v, true, false, err
	})
	seq := uint64(100)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end) && !stop.Load(); seq++ {
		if err := m.Put(key, vals[seq%3], seq, false, false); err != nil {
			t.Errorf("put: %v", err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d reads against %d rewrites", reads.Load(), seq-100)
}

// TestObjectCacheNeverServesStale: one writer walks 8 keys through versions
// that describe themselves — updates in place, resizes, now and then a delete
// — while the movers demote, split and rebuild the zones under it and four
// readers poll. Whatever a Get finds must be a version the index held at some
// point during the call, carrying that version's bytes, and a reader never
// sees a key go back in time. A key the movers have demoted is simply not
// found until it is written again.
func TestObjectCacheNeverServesStale(t *testing.T) {
	const nKeys = 8
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, Cache: cache.NewLRU(1<<20, nil)})
	key := func(k int) []byte { return k8(uint64(k+1) << 40) }
	// Version v of key k: a delete every 16th, else the key and the version
	// repeated through a value whose size class changes every 4th.
	deleted := func(v uint64) bool { return v%16 == 0 }
	value := func(k int, v uint64) []byte {
		b := make([]byte, 24+16*(v%3)+200*(v/4%2))
		for i := 0; i+8 <= len(b); i += 8 {
			binary.BigEndian.PutUint64(b[i:], v<<8|uint64(k))
		}
		return b
	}
	var started, done [nKeys]atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var seen [nKeys]uint64
			for i := r; !stop.Load(); i++ {
				k := i % nKeys
				lo := done[k].Load()
				var v []byte
				var seq uint64
				var tomb, found bool
				var err error
				if i%5 == 0 {
					var res []GetResult
					if res, err = m.GetBatch([][]byte{key((k + 1) % nKeys), key(k)}, device.Fg); err == nil {
						v, seq, tomb, found = res[1].Value, res[1].Seq, res[1].Tombstone, res[1].Found
					}
				} else {
					v, seq, tomb, found, err = m.Get(key(k), device.Fg)
				}
				hi := started[k].Load()
				switch {
				case err != nil:
					fail("reader %d, key %d: %v", r, k, err)
				case !found:
				case seq < lo || seq > hi || seq < seen[k]:
					fail("reader %d, key %d: got version %d; the index held %d to %d during the call and this reader had seen %d", r, k, seq, lo, hi, seen[k])
				case tomb != deleted(seq) || !tomb && !bytes.Equal(v, value(k, seq)):
					fail("reader %d, key %d: version %d (tombstone %v) came with %d bytes of another version: %x", r, k, seq, tomb, len(v), v)
				default:
					seen[k] = seq
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // the movers
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			var err error
			switch z := m.PickDemotionVictim(); {
			case i%3 == 0:
				err = m.EvictHotZone(func(k []byte) bool { return (k[2]+byte(i))%2 == 0 })
			case z == nil:
			case i%3 == 1:
				_, err = m.SplitZone(z)
			default:
				var b *Batch
				if b, err = m.PrepareMigration(z); err == nil && b != nil {
					m.CommitMigration(b)
				}
			}
			if err != nil {
				fail("mover: %v", err)
			}
		}
	}()

	v := uint64(0)
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end) && !stop.Load(); {
		v++
		for k := 0; k < nKeys && !stop.Load(); k++ {
			var err error
			started[k].Store(v)
			if deleted(v) {
				err = m.Delete(key(k), v)
			} else {
				err = m.Put(key(k), value(k, v), v, (uint64(k)+v)%5 == 0, false)
			}
			if err != nil {
				fail("writer: key %d version %d: %v", k, v, err)
			}
			done[k].Store(v)
		}
	}
	stop.Store(true)
	wg.Wait()
	u := m.cfg.Cache.Usage()
	t.Logf("%d versions of %d keys; cache %d hits, %d misses", v, nKeys, u.Hits, u.Misses)
	if u.Hits == 0 || u.Misses == 0 {
		t.Fatalf("the cache was not in play: %+v", u)
	}
}

// TestPromotionIsCachedPastAdmission: the reads that make the hotness tracker
// promote a key went to the capacity tier, so the cache's sketch never
// counted them, and a full cache whose objects have each been written and
// read twice would refuse the key as a fill. A promotion is let in: the next
// Get is answered from DRAM.
func TestPromotionIsCachedPastAdmission(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	c := cache.NewLRU(1<<20, nil)
	m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, Cache: c})
	value := bytes.Repeat([]byte{7}, 100)
	const nKeys = 8000 // about five times what the cache holds
	for i := uint64(0); i < nKeys; i++ {
		if err := m.Put(k8(i<<40), value, i+1, false, false); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < nKeys; i++ {
			if _, _, _, found, err := m.Get(k8(i<<40), device.Fg); err != nil || !found {
				t.Fatalf("key %d: found %v, %v", i, found, err)
			}
		}
	}
	if u := c.Usage(); u.Rejected == 0 {
		t.Fatalf("no fill was refused: the cache is not full (%+v)", u)
	}
	hot := k8(1 << 62)
	if err := m.Promote(hot, value, nKeys+1); err != nil {
		t.Fatal(err)
	}
	reads, hits := dev.Counters().ReadOps.Load(), c.Usage().Hits
	v, seq, _, found, err := m.Get(hot, device.Fg)
	if err != nil || !found || seq != nKeys+1 || !bytes.Equal(v, value) {
		t.Fatalf("promoted key: %x at %d, found %v, %v", v, seq, found, err)
	}
	if r, h := dev.Counters().ReadOps.Load()-reads, c.Usage().Hits-hits; r != 0 || h != 1 {
		t.Fatalf("the first Get of a promoted object took %d device reads and %d cache hits; want 0 and 1", r, h)
	}
}
