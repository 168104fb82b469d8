package cache

import (
	"fmt"
	"sync"
	"testing"

	"hyperdb/internal/device"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(1<<20, nil)
	c.Put("a", []byte("1"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("phantom hit")
	}
	c.Put("a", []byte("2"))
	if v, _ := c.Get("a"); string(v) != "2" {
		t.Fatal("overwrite failed")
	}
	c.Delete("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("delete failed")
	}
}

func TestLRUEvictsByBytes(t *testing.T) {
	// Tiny budget: with 16 shards, each shard holds very little.
	c := NewLRU(16*300, nil)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%02d", i), make([]byte, 100))
	}
	u := c.Usage()
	if u.Used > 16*300 {
		t.Fatalf("used %d exceeds budget", u.Used)
	}
	if u.Entries >= 100 {
		t.Fatal("nothing evicted")
	}
}

func TestLRURecencyOrder(t *testing.T) {
	// Budget fits two entries per shard (charge = key+value+entryOverhead
	// ≈ 150); inserting a third evicts the least recent.
	c := NewLRU(16*400, nil)
	ks := sameShardKeys(c, 3)
	c.Put(ks[0], make([]byte, 60))
	c.Put(ks[1], make([]byte, 60))
	c.Get(ks[0]) // refresh ks[0]
	c.Put(ks[2], make([]byte, 60))
	if _, ok := c.Get(ks[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(ks[1]); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestLRUOnEvict(t *testing.T) {
	var evicted []string
	c := NewLRU(16*400, func(key string, value []byte) {
		evicted = append(evicted, key)
	})
	ks := sameShardKeys(c, 4)
	for _, k := range ks {
		c.Put(k, make([]byte, 80))
	}
	if len(evicted) == 0 {
		t.Fatal("eviction callback never fired")
	}
}

func TestLRUOversizedRejected(t *testing.T) {
	c := NewLRU(1600, nil) // 100 bytes/shard
	c.Put("big", make([]byte, 4096))
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized value should not be cached")
	}
}

func TestLRUHitRate(t *testing.T) {
	c := NewLRU(1<<20, nil)
	c.Put("a", []byte("x"))
	c.Get("a")
	c.Get("a")
	c.Get("b")
	if hr := c.HitRate(); hr < 0.6 || hr > 0.7 {
		t.Fatalf("hit rate = %f, want 2/3", hr)
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(1<<20, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (id*31+i)%500)
				if i%3 == 0 {
					c.Put(k, []byte(k))
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlashCache(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 1<<20))
	fl, err := NewFlash(dev, "flash", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	fl.Put("block1", []byte("contents-1"))
	before := dev.Counters().Snapshot()
	v, ok := fl.Get("block1")
	if !ok || string(v) != "contents-1" {
		t.Fatalf("flash get: %q %v", v, ok)
	}
	delta := dev.Counters().Snapshot().Sub(before)
	if delta.ReadBytes == 0 {
		t.Fatal("flash hit must charge a device read")
	}
	if _, ok := fl.Get("missing"); ok {
		t.Fatal("phantom flash hit")
	}
	hits, misses, fills := fl.Stats()
	if hits != 1 || misses != 1 || fills != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, fills)
	}
}

func TestFlashEvictionAndReuse(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 1<<20))
	fl, _ := NewFlash(dev, "flash", 4*4096) // four pages
	for i := 0; i < 10; i++ {
		fl.Put(fmt.Sprintf("b%d", i), make([]byte, 4000))
	}
	// Only the most recent ~4 survive.
	if _, ok := fl.Get("b0"); ok {
		t.Fatal("oldest block survived eviction")
	}
	if _, ok := fl.Get("b9"); !ok {
		t.Fatal("newest block evicted")
	}
	if used := fl.used; used > 4*4096 {
		t.Fatalf("flash used %d over budget", used)
	}
}

func TestFlashWritesAreBackground(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 1<<20))
	fl, _ := NewFlash(dev, "flash", 64<<10)
	fl.Put("b", make([]byte, 4096))
	s := dev.Counters().Snapshot()
	if s.BgWriteBytes == 0 {
		t.Fatal("cache fill should be background traffic")
	}
}

func TestTiered(t *testing.T) {
	dev := device.New(device.UnthrottledProfile("nvme", 1<<20))
	fl, _ := NewFlash(dev, "flash", 64<<10)
	tc := NewTiered(16*400, fl) // tiny DRAM: spills fast
	ks := sameShardKeys(tc.dram, 3)
	tc.Put(ks[0], make([]byte, 80))
	tc.Put(ks[1], make([]byte, 80))
	tc.Put(ks[2], make([]byte, 80)) // evicts ks[0] or ks[1] into flash
	for _, k := range ks {
		if _, ok := tc.Get(k); !ok {
			t.Fatalf("%s lost from both tiers", k)
		}
	}
	tc.Delete(ks[0])
	if _, ok := tc.Get(ks[0]); ok {
		t.Fatal("delete did not remove from both tiers")
	}
}
