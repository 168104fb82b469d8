package cache

import (
	"container/list"
	"hash/crc32"
	"sync"

	"hyperdb/internal/device"
)

// BlockCache is the read-path cache interface shared by table readers.
// *LRU (DRAM) and *Tiered (DRAM + flash) both satisfy it.
type BlockCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
	Delete(key string)
}

// Flash is a device-backed block cache: the secondary-cache architecture
// the paper evaluates as RocksDB-SC, where the NVMe device caches data
// blocks for the SATA-resident LSM. Hits cost an NVMe page read; fills cost
// an NVMe page write — the "higher extra write volume" §4.2 observes.
type Flash struct {
	mu     sync.Mutex
	f      *device.File
	dev    *device.Device
	budget int64
	used   int64
	items  map[string]*list.Element
	order  *list.List // front = most recent
	free   []flashExtent
	tail   int64
	hits   uint64
	misses uint64
	fills  uint64
}

type flashExtent struct {
	off   int64
	pages int64
}

type flashEntry struct {
	key   string
	off   int64
	size  int64 // logical bytes
	pages int64
	crc   uint32
	ready bool // extent contents written
}

// NewFlash creates a flash cache holding up to budget bytes in a file on
// dev.
func NewFlash(dev *device.Device, name string, budget int64) (*Flash, error) {
	f, err := dev.Create(name)
	if err != nil {
		return nil, err
	}
	return &Flash{
		f:      f,
		dev:    dev,
		budget: budget,
		items:  make(map[string]*list.Element),
		order:  list.New(),
	}, nil
}

// Get reads a cached block from the device (one charged read). The extent
// is re-verified after the read: a concurrent eviction may have recycled it
// for another block, in which case the read retries or misses.
func (c *Flash) Get(key string) ([]byte, bool) {
	for attempt := 0; attempt < 4; attempt++ {
		c.mu.Lock()
		el, ok := c.items[key]
		if !ok {
			c.misses++
			c.mu.Unlock()
			return nil, false
		}
		e := el.Value.(*flashEntry)
		if !e.ready {
			// Fill still in flight; treat as a miss.
			c.misses++
			c.mu.Unlock()
			return nil, false
		}
		c.order.MoveToFront(el)
		off, size, crc := e.off, e.size, e.crc
		c.mu.Unlock()

		buf := make([]byte, size)
		if _, err := c.f.ReadAt(buf, off, device.Fg); err != nil {
			return nil, false
		}
		c.mu.Lock()
		el2, ok2 := c.items[key]
		stable := ok2 && el2 == el && el2.Value.(*flashEntry).off == off
		c.mu.Unlock()
		if !stable {
			continue
		}
		if crc32.ChecksumIEEE(buf) != crc {
			// The extent raced a recycler; drop the entry and miss.
			c.Delete(key)
			return nil, false
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return buf, true
	}
	return nil, false
}

// Put inserts a block, evicting LRU entries to fit (charged write).
func (c *Flash) Put(key string, value []byte) {
	ps := int64(c.dev.PageSize())
	pages := (int64(len(value)) + ps - 1) / ps
	if pages*ps > c.budget {
		return
	}
	c.mu.Lock()
	if _, ok := c.items[key]; ok {
		c.mu.Unlock()
		return
	}
	for c.used+pages*ps > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*flashEntry)
		c.order.Remove(back)
		delete(c.items, e.key)
		c.used -= e.pages * ps
		c.free = append(c.free, flashExtent{off: e.off, pages: e.pages})
	}
	// First-fit from the free list, else extend the tail.
	off := int64(-1)
	for i, fe := range c.free {
		if fe.pages >= pages {
			off = fe.off
			if fe.pages > pages {
				c.free[i] = flashExtent{off: fe.off + pages*ps, pages: fe.pages - pages}
			} else {
				c.free = append(c.free[:i], c.free[i+1:]...)
			}
			break
		}
	}
	if off < 0 {
		off = c.tail
		c.tail += pages * ps
	}
	e := &flashEntry{key: key, off: off, size: int64(len(value)), pages: pages, crc: crc32.ChecksumIEEE(value)}
	c.items[key] = c.order.PushFront(e)
	c.used += pages * ps
	c.fills++
	c.mu.Unlock()

	// Cache fill is background traffic: it is not on the client's critical
	// path (RocksDB-SC inserts on DRAM-cache eviction). The entry becomes
	// readable only once its bytes are on the device.
	if err := c.f.WriteAt(value, off, device.Bg); err != nil {
		c.Delete(key)
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if fe := el.Value.(*flashEntry); fe.off == off {
			fe.ready = true
		}
	}
	c.mu.Unlock()
}

// Delete removes a cached block.
func (c *Flash) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*flashEntry)
		c.order.Remove(el)
		delete(c.items, e.key)
		ps := int64(c.dev.PageSize())
		c.used -= e.pages * ps
		c.free = append(c.free, flashExtent{off: e.off, pages: e.pages})
	}
}

// Stats returns hit/miss/fill counts.
func (c *Flash) Stats() (hits, misses, fills uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.fills
}

// Tiered layers a DRAM LRU over a Flash cache: DRAM evictions spill to
// flash; flash hits re-promote to DRAM.
type Tiered struct {
	dram  *LRU
	flash *Flash
}

// NewTiered builds the two-level cache. DRAM evictions feed the flash tier.
func NewTiered(dramBytes int64, flash *Flash) *Tiered {
	t := &Tiered{flash: flash}
	t.dram = NewLRU(dramBytes, func(key string, value []byte) {
		flash.Put(key, value)
	})
	return t
}

// Get checks DRAM then flash, promoting flash hits.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if v, ok := t.dram.Get(key); ok {
		return v, true
	}
	if v, ok := t.flash.Get(key); ok {
		t.dram.Put(key, v)
		return v, true
	}
	return nil, false
}

// Put inserts into DRAM (spilling to flash on eviction).
func (t *Tiered) Put(key string, value []byte) { t.dram.Put(key, value) }

// Delete removes from both tiers.
func (t *Tiered) Delete(key string) {
	t.dram.Delete(key)
	t.flash.Delete(key)
}
