package zone

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperdb/internal/cache"
	"hyperdb/internal/device"
	"hyperdb/internal/slot"
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
	if err := putOne(f.m, key, value, seq, false); err != nil {
		t.Fatal(err)
	}
}

// page reads loc0's page off the device.
func (f *loadFixture) page(t *testing.T) []byte {
	t.Helper()
	p, err := f.m.files[f.loc0.Class].ReadPage(f.loc0.Page, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadRule drives the tier's one slot reader through every way a Location
// goes stale, single-threaded: a Location is taken, the object is mutated,
// the scan's page memo is left without the page, with the page as the device
// now has it, or with the page as it was — and each reader must answer by
// the rule (key and sequence match, or the slot is not the object) at an
// exact price in device reads. ReadAt answers for the Location: its version
// or ErrMoved; the ScanReader cases read as a scan does, the neighbour and
// then k, each through ReadAt and one memo. Get answers for the key: the
// index's newest version, a tombstone only for a deleted key, or no opinion
// once the key has left the tier; the GetBatch cases read the neighbour and
// then k, each through Get. A point read has no memo, so the Get cases pay
// the same whatever the memo holds. Only Get heats the zone.
func TestLoadRule(t *testing.T) {
	v2 := bytes.Repeat([]byte{2}, 20)   // same class as v1: updated in place
	big := bytes.Repeat([]byte{3}, 200) // another class: relocated
	const moved, none, tomb = "moved", "none", "tomb"
	mutations := []struct {
		name   string
		mutate func(t *testing.T, f *loadFixture)
		// readAt is what loc0 resolves to when the memo does not hold the
		// old page; get is what the key resolves to and getReads what a
		// Get costs.
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
			f.put(t, f.k, big, 3) // erases loc0's slot
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
			if err := deleteOne(f.m, f.k, 3); err != nil {
				t.Fatal(err)
			}
		}, moved, tomb, 3, 0},
	}
	// What the scan's memo holds for loc0's page when the read starts.
	const (
		absent = iota
		fresh  // the page as the device has it now
		stale  // the page as it was when loc0 was taken
	)
	values := map[string][]byte{"v1": bytes.Repeat([]byte{1}, 20), "v2": v2, "big": big}

	for _, mu := range mutations {
		// setup builds the case up to the moment of the read and returns
		// the memo a scan holds then and a device-read meter.
		setup := func(t *testing.T, state int) (*loadFixture, slot.Pages, func() uint64) {
			f := newLoadFixture(t)
			mu.mutate(t, f)
			memo := make(slot.Pages)
			switch at := (slot.Addr{Class: f.loc0.Class, Page: f.loc0.Page}); state {
			case fresh:
				memo[at] = f.page(t)
			case stale:
				memo[at] = f.p0
			}
			before := f.dev.Counters().ReadOps.Load()
			return f, memo, func() uint64 { return f.dev.Counters().ReadOps.Load() - before }
		}
		// Get answers for the key. It pays for the page the index names now:
		// loc0's page unless the object relocated. A point read is handed no
		// memo, so what a scan's memo holds does not change its price.
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
		for state, stateName := range []string{"absent", "fresh", "stale"} {
			name := mu.name + ", page " + stateName + ": "
			// A page that still shows loc0's version — fetched before the
			// mutation, or never mutated — serves it without the device; any
			// other page costs exactly one device read. held is what the
			// memo holds for loc0's page when k is read.
			checkLoc := func(t *testing.T, held int, got []byte, err error, reads uint64) {
				t.Helper()
				switch {
				case held == stale || mu.readAt == "v1" && held == fresh:
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
				f, memo, reads := setup(t, state)
				got, err := f.m.ReadAt(f.k, f.loc0, device.Fg, memo)
				checkLoc(t, state, got, err, reads())
				if z := f.m.zoneByID[f.loc0.ZoneID]; z != nil && z.ReadIOs() != 0 {
					t.Fatalf("a scan read heated the zone: readIOs %d", z.ReadIOs())
				}
			})
			t.Run(name+"ScanReader", func(t *testing.T) {
				// A scan reads its refs through ReadAt in key order, so the
				// neighbour goes first, and the page it fetches stays in the
				// memo: k is then read as if the memo had held its page as the
				// device has it now.
				f, memo, reads := setup(t, state)
				demoted := mu.get == none
				nv, err := f.m.ReadAt(f.n, f.nloc, device.Fg, memo)
				nReads := reads()
				switch {
				case state == stale || state == fresh && !demoted:
					if err != nil || !bytes.Equal(nv, f.v1) || nReads != 0 {
						t.Fatalf("neighbour: got %q, %v after %d device reads; want its version from the page in hand", nv, err, nReads)
					}
				case demoted:
					if !errors.Is(err, ErrMoved) || nReads != 1 {
						t.Fatalf("neighbour: got %q, %v after %d device reads; want ErrMoved after one", nv, err, nReads)
					}
				default:
					if err != nil || !bytes.Equal(nv, f.v1) || nReads != 1 {
						t.Fatalf("neighbour: got %q, %v after %d device reads; want its version after one", nv, err, nReads)
					}
				}
				held := state
				if held == absent {
					held = fresh
				}
				got, err := f.m.ReadAt(f.k, f.loc0, device.Fg, memo)
				checkLoc(t, held, got, err, reads()-nReads)
				for _, z := range f.m.zoneByID {
					if z.ReadIOs() != 0 {
						t.Fatalf("a scan read heated a zone: readIOs %d", z.ReadIOs())
					}
				}
			})
			t.Run(name+"Get", func(t *testing.T) {
				f, _, reads := setup(t, state)
				v, seq, tombstone, found, err := f.m.Get(f.k, device.Fg)
				checkKey(t, GetResult{v, seq, tombstone, found}, err)
				if got := reads(); got != mu.getReads || heat(f) != mu.getReads {
					t.Fatalf("%d device reads, readIOs %d; want %d of each", got, heat(f), mu.getReads)
				}
			})
			t.Run(name+"GetBatch", func(t *testing.T) {
				// A batch of the neighbour and k is a Get of each in turn. A
				// point read caches its object, not the page, so k pays as a
				// Get does.
				f, _, reads := setup(t, state)
				nv, _, _, nfound, err := f.m.Get(f.n, device.Fg)
				if err != nil {
					t.Fatal(err)
				}
				v, seq, tombstone, found, err := f.m.Get(f.k, device.Fg)
				checkKey(t, GetResult{v, seq, tombstone, found}, err)
				if mu.get != none && (!nfound || !bytes.Equal(nv, f.v1)) {
					t.Fatalf("neighbour: %q found=%v", nv, nfound)
				}
				// The neighbour costs a read while it is still in the tier.
				want := mu.getReads
				if mu.get != none {
					want++
				}
				if got := reads(); got != want || heat(f) != want {
					t.Fatalf("%d device reads, readIOs %d; want %d of each", got, heat(f), want)
				}
			})
		}

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

// TestScanReadsEachPageOnce: a scan whose objects share one slot page pays
// one device read for all of them, through its memo, and caches each object
// it read — never the page — so the same scan repeated with a fresh memo
// pays none.
func TestScanReadsEachPageOnce(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 0))
	c := cache.NewLRU(1<<20, nil)
	m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, Cache: c})
	value := bytes.Repeat([]byte{5}, 20)
	const n = 16 // all in one 64-byte-slot page
	for i := uint64(0); i < n; i++ {
		if err := putOne(m, k8(1<<40|i), value, i+1, false); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() (reads uint64) {
		var refs []locRef
		m.Scan(nil, nil, func(k []byte, loc Location) bool {
			refs = append(refs, locRef{k, loc})
			return true
		})
		if len(refs) != n || refs[0].loc.Page != refs[n-1].loc.Page || refs[0].loc.Class != refs[n-1].loc.Class {
			t.Fatalf("fixture: %d refs from %+v to %+v; want %d on one page", len(refs), refs[0].loc, refs[len(refs)-1].loc, n)
		}
		memo := make(slot.Pages)
		before := dev.Counters().ReadOps.Load()
		for _, r := range refs {
			if v, err := m.ReadAt(r.key, r.loc, device.Fg, memo); err != nil || !bytes.Equal(v, value) {
				t.Fatalf("%x: %q, %v", r.key, v, err)
			}
		}
		return dev.Counters().ReadOps.Load() - before
	}
	if r := scan(); r != 1 {
		t.Fatalf("the first scan took %d device reads; want 1", r)
	}
	if r := scan(); r != 0 {
		t.Fatalf("the repeated scan took %d device reads; want 0", r)
	}
	if u := c.Usage(); u.Objects != n || u.Entries != u.Objects {
		t.Fatalf("the cache holds %d entries, %d of them objects; want the %d objects only", u.Entries, u.Objects, n)
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
		if err := putOne(m, k8(7<<40|i), vals[0], i+1, false); err != nil {
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
		if _, _, _, _, err := m.Get(k8(7<<40|1), device.Fg); err != nil {
			return nil, false, false, err
		}
		return get()
	})
	go reader(func() ([]byte, bool, bool, error) {
		// A scan of the key and its neighbour that reads the neighbour
		// first, so the key's page may be in the memo from before a rewrite.
		var refs []locRef
		m.Scan(key, nil, func(k []byte, l Location) bool {
			refs = append(refs, locRef{k, l})
			return len(refs) < 2
		})
		if len(refs) != 2 || !bytes.Equal(refs[0].key, key) || refs[0].loc.Tombstone {
			return nil, false, len(refs) > 0 && refs[0].loc.Tombstone, nil
		}
		memo := make(slot.Pages)
		if _, err := m.ReadAt(refs[1].key, refs[1].loc, device.Fg, memo); err != nil {
			return nil, false, false, err
		}
		v, err := m.ReadAt(key, refs[0].loc, device.Fg, memo)
		if errors.Is(err, ErrMoved) {
			return get()
		}
		return v, true, false, err
	})
	seq := uint64(100)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end) && !stop.Load(); seq++ {
		if err := putOne(m, key, vals[seq%3], seq, false); err != nil {
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
// — while the movers demote, split and rebuild the zones under it, four
// readers poll with Get and a fifth scans: Scan, then ReadAt of every
// Location through one memo per scan. Whatever a reader finds must be a
// version the index held at some point during the call, carrying that
// version's bytes, and a reader never sees a key go back in time. A key the
// movers have demoted is simply not found until it is written again; a
// Location that moved is ErrMoved to the scan.
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
				if i%5 == 0 { // a neighbour first, as a batch of two reads them
					_, _, _, _, err = m.Get(key((k+1)%nKeys), device.Fg)
				}
				if err == nil {
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
	go func() { // the scan reader
		defer wg.Done()
		var seen [nKeys]uint64
		for !stop.Load() {
			var lo [nKeys]uint64
			for k := range lo {
				lo[k] = done[k].Load()
			}
			var refs []locRef
			m.Scan(nil, nil, func(k []byte, loc Location) bool {
				refs = append(refs, locRef{k, loc})
				return true
			})
			memo := make(slot.Pages)
			vals := make([][]byte, len(refs))
			for i, r := range refs {
				if r.loc.Tombstone {
					continue
				}
				v, err := m.ReadAt(r.key, r.loc, device.Fg, memo)
				switch {
				case errors.Is(err, ErrMoved):
					refs[i].loc.Seq = 0 // says nothing about the key
				case err != nil:
					fail("scan reader, %x: %v", r.key, err)
				default:
					vals[i] = v
				}
			}
			for i, r := range refs {
				k := int(binary.BigEndian.Uint64(r.key)>>40) - 1
				seq, hi := r.loc.Seq, started[k].Load()
				switch {
				case seq == 0:
				case seq < lo[k] || seq > hi || seq < seen[k]:
					fail("scan reader, key %d: got version %d; the index held %d to %d during the scan and this reader had seen %d", k, seq, lo[k], hi, seen[k])
				case r.loc.Tombstone != deleted(seq) || !r.loc.Tombstone && !bytes.Equal(vals[i], value(k, seq)):
					fail("scan reader, key %d: version %d (tombstone %v) came with %d bytes of another version: %x", k, seq, r.loc.Tombstone, len(vals[i]), vals[i])
				default:
					seen[k] = seq
				}
			}
		}
	}()
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
				err = deleteOne(m, key(k), v)
			} else {
				err = putOne(m, key(k), value(k, v), v, (uint64(k)+v)%5 == 0)
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
		if err := putOne(m, k8(i<<40), value, i+1, false); err != nil {
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
	if err := m.Promote(hot, value, nKeys+1, nKeys); err != nil {
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

// TestPointReadSlot: a point read fetches k's slot alone, and the device
// books it as the page read it replaced — one read of one page. The value it
// returns is capped at its own length. A slot that fails its checksum reads
// as it does through its page: ErrMoved after one device read, and a Get
// that ends in an error naming the key.
func TestPointReadSlot(t *testing.T) {
	f := newLoadFixture(t)
	ctr := f.dev.Counters()
	ops, bytes0 := ctr.ReadOps.Load(), ctr.ReadBytes.Load()
	v, err := f.m.ReadAt(f.k, f.loc0, device.Fg, nil)
	if err != nil || !bytes.Equal(v, f.v1) || cap(v) != len(v) {
		t.Fatalf("ReadAt: %q (cap %d), %v; want %q capped at its length", v, cap(v), err, f.v1)
	}
	if n, b := ctr.ReadOps.Load()-ops, ctr.ReadBytes.Load()-bytes0; n != 1 || b != uint64(f.dev.PageSize()) {
		t.Fatalf("a point read booked %d reads of %d bytes, want one page", n, b)
	}

	// Flip the last value byte of k's slot on the device.
	name := fmt.Sprintf("p0-slab%d", slot.Classes[f.loc0.Class])
	df, err := f.dev.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(f.loc0.Page)*int64(f.dev.PageSize()) + int64(f.loc0.Slot)*int64(slot.Classes[f.loc0.Class]) +
		int64(slot.HeaderSize+len(f.k)+len(f.v1)-1)
	if err := df.WriteAt([]byte{0xEE}, off, device.Fg); err != nil {
		t.Fatal(err)
	}
	f.m.cfg.Cache = nil // the read above cached k: go to the device
	for _, memo := range []slot.Pages{nil, make(slot.Pages)} {
		ops := ctr.ReadOps.Load()
		if v, err := f.m.ReadAt(f.k, f.loc0, device.Fg, memo); !errors.Is(err, ErrMoved) || ctr.ReadOps.Load()-ops != 1 {
			t.Fatalf("damaged slot, memo %v: %q, %v after %d reads; want ErrMoved after one", memo != nil, v, err, ctr.ReadOps.Load()-ops)
		}
	}
	if _, err := f.m.get(f.k, device.Fg); err == nil || !strings.Contains(err.Error(), "does not hold it") {
		t.Fatalf("Get of a damaged slot: %v, want the index-names-a-slot error", err)
	}
	if r, err := f.m.get(f.n, device.Fg); err != nil || !bytes.Equal(r.Value, f.v1) {
		t.Fatalf("the neighbour on the same page: %+v, %v", r, err)
	}
}
