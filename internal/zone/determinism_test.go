package zone

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hyperdb/internal/cache"
	"hyperdb/internal/device"
	"hyperdb/internal/slot"
)

// TestSameTraceSameCacheAndReads: the cache's victims are a function of the
// operations it saw — no map iteration, no clock — so two managers fed one
// trace of point reads, batches, scans, writes, deletes, demotions and
// hot-zone evictions, through a cache a third of the data, pay for exactly
// the same device reads and end with the same objects cached — and nothing
// but objects: a scan caches what it read, not the pages it read it from.
func TestSameTraceSameCacheAndReads(t *testing.T) {
	const nKeys, nOps = 4000, 50_000
	type outcome struct {
		reads        uint64
		hits, misses uint64
		usage        cache.Usage
		cached       []byte // per key: its object's bytes if cached at the index's version
	}
	run := func() outcome {
		dev := device.New(device.UnthrottledProfile("nvme", 0))
		c := cache.NewLRU(256<<10, nil)
		m := openMgr(t, Config{Dev: dev, BatchSize: 64 << 10, Cache: c})
		rng, seq := uint64(42), uint64(0)
		next := func(n uint64) uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return (rng >> 33) % n
		}
		key := func() []byte { return k8(next(nKeys) * next(nKeys) / nKeys << 48) } // skewed
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nOps; i++ {
			switch r := next(100); {
			case r < 40:
				_, _, _, _, err := m.Get(key(), device.Fg)
				must(err)
			case r < 45:
				for j := 0; j < 3; j++ {
					_, _, _, _, err := m.Get(key(), device.Fg)
					must(err)
				}
			case r < 50:
				var locs []locRef
				m.Scan(key(), nil, func(k []byte, loc Location) bool {
					locs = append(locs, locRef{k, loc})
					return len(locs) < 20
				})
				memo := make(slot.Pages)
				for _, l := range locs {
					if !l.loc.Tombstone {
						_, err := m.ReadAt(l.key, l.loc, device.Fg, memo)
						must(err)
					}
				}
			case r < 95:
				seq++
				must(putOne(m, key(), make([]byte, 40+100*next(2)), seq, next(10) == 0))
			default:
				seq++
				must(deleteOne(m, key(), seq))
			}
			if i%5000 == 2499 {
				if z := m.PickDemotionVictim(); z != nil {
					b, err := m.PrepareMigration(z)
					must(err)
					m.CommitMigration(b)
				}
				must(m.EvictHotZone(func(k []byte) bool { return k[3]%2 == 0 }))
			}
		}
		o := outcome{reads: dev.Counters().ReadOps.Load(), usage: c.Usage()}
		o.hits, o.misses = c.Stats()
		// Every cached object is its key's newest version: the one the
		// index names, and only for a key the index holds.
		cached := 0
		m.Scan(nil, nil, func(k []byte, loc Location) bool {
			var kb objectKeyBuf
			v, tag, ok := c.GetObject(string(m.objectKey(&kb, k)), nil, false)
			if ok {
				cached++
				if tag != loc.Seq {
					t.Errorf("%x is cached at version %d; the index names %d", k, tag, loc.Seq)
				}
			}
			o.cached = append(append(o.cached, byte(len(v))), v...)
			return true
		})
		if cached != o.usage.Objects {
			t.Errorf("the cache holds %d objects, %d of them for keys in the index", o.usage.Objects, cached)
		}
		return o
	}
	a, b := run(), run()
	if a.reads != b.reads || a.hits != b.hits || a.misses != b.misses || a.usage != b.usage || !bytes.Equal(a.cached, b.cached) {
		t.Fatalf("two runs of one trace differ:\n %d reads, %d/%d hits/misses, %+v\n %d reads, %d/%d hits/misses, %+v",
			a.reads, a.hits, a.misses, a.usage, b.reads, b.hits, b.misses, b.usage)
	}
	u := a.usage
	if a.reads == 0 || a.hits == 0 || u.Objects == 0 || u.Used < u.Capacity/2 {
		t.Fatalf("the trace did not exercise the cache: %d device reads, %d hits, %+v", a.reads, a.hits, u)
	}
	if u.Entries != u.Objects {
		t.Fatalf("the zone tier cached %d slot pages; it caches objects only: %+v", u.Entries-u.Objects, u)
	}
}

// TestZonePagesAreFreedInPageOrder: a demoted, split or evicted zone hands its
// pages back sorted, so the page the next allocation reuses is a function of
// the zone's contents and not of map iteration.
func TestZonePagesAreFreedInPageOrder(t *testing.T) {
	free := map[string]func(m *Manager) error{
		"CommitMigration": func(m *Manager) error {
			b, err := m.PrepareMigration(m.zones[0])
			if err == nil {
				m.CommitMigration(b)
			}
			return err
		},
		"SplitZone":    func(m *Manager) error { _, err := m.SplitZone(m.zones[0]); return err },
		"EvictHotZone": func(m *Manager) error { return m.EvictHotZone(func([]byte) bool { return false }) },
	}
	for name, fn := range free {
		m, _ := newMgr(t, 0, 1<<20)
		for i := uint64(0); i < 4000; i++ {
			// Two size classes, all in one key-range zone (or the hot zone).
			putOne(m, k8(i<<20), make([]byte, 40+100*(i%2)), i+1, name == "EvictHotZone")
		}
		if name != "EvictHotZone" && len(m.zones) != 1 {
			t.Fatalf("%s: %d zones, want 1", name, len(m.zones))
		}
		z := m.hot
		if name != "EvictHotZone" {
			z = m.zones[0]
		}
		owned := make([]int, len(z.pages))
		for c := range z.pages {
			owned[c] = len(z.pages[c])
		}
		if err := fn(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A slot file reuses its freed pages last-freed first, so freeing in
		// page order hands them back in descending order.
		freed := 0
		for c, sf := range m.files {
			var got []uint32
			for i := 0; i < owned[c]; i++ {
				p, err := sf.AllocPage()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, p)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) {
				t.Fatalf("%s: class %d pages freed out of page order: reused %v", name, sf.SlotSize(), got)
			}
			freed += len(got)
		}
		if freed < 100 {
			t.Fatalf("%s: only %d pages freed", name, freed)
		}
	}
}

// TestRecoveryIsDeterministic: two recoveries of one device rebuild the same
// per-zone free-slot lists, so the same later writes land in the same slots.
// Recovery once released free slots in map order.
func TestRecoveryIsDeterministic(t *testing.T) {
	cfg := Config{Dev: device.New(device.UnthrottledProfile("nvme", 0)), BatchSize: 64 << 10}
	m := openMgr(t, cfg)
	seq := uint64(0)
	for i := uint64(0); i < 800; i++ {
		n := 40
		if i >= 400 { // every third key relocates to another class, erasing its slot
			if i%3 != 0 {
				continue
			}
			n = 400
		}
		seq++
		if err := putOne(m, k8(i%400<<20), make([]byte, n), seq, false); err != nil {
			t.Fatal(err)
		}
	}
	free := func(m *Manager) (string, int) {
		var b strings.Builder
		n := 0
		for _, z := range append([]*Zone{m.hot}, m.zones...) {
			fmt.Fprintf(&b, "zone %d: %v\n", z.id, z.freeSlots)
			for _, l := range z.freeSlots {
				n += len(l)
			}
		}
		return b.String(), n
	}
	a, b := openMgr(t, cfg), openMgr(t, cfg)
	fa, n := free(a)
	if fb, _ := free(b); fa != fb {
		t.Fatalf("two recoveries of one device rebuilt different free lists:\n%s\n%s", fa, fb)
	}
	if n < 100 {
		t.Fatalf("only %d free slots recovered", n)
	}
	for i := uint64(0); i < 100; i++ {
		seq++
		k := k8(i<<20 + 1)
		for _, m := range []*Manager{a, b} {
			if err := putOne(m, k, make([]byte, 40), seq, false); err != nil {
				t.Fatal(err)
			}
		}
		la, _ := a.index.Get(k)
		lb, _ := b.index.Get(k)
		if la != lb {
			t.Fatalf("write %d landed at %+v after one recovery, %+v after the other", i, la, lb)
		}
	}
}
