// Package cache provides the DRAM cache from the paper's setup (§4.1: one
// cache shared by both tiers) and the flash secondary cache of the RocksDB-SC
// baseline. LRU is sharded, byte-budgeted and scan-resistant, and holds two
// kinds of entry in one budget: pages and blocks, which table and slot
// readers share by reference (BlockCache), and objects — one key's value at
// one version — which it copies in and out (GetObject, PutObject,
// PromoteObject, RefreshObject). Objects also pass an admission test
// (TinyLFU): each shard counts the object keys it is asked for and written
// under in a count-min sketch, charged to the budget, and a fill that would
// evict gets in only if its key has been counted more often than the entry it
// would evict. Pages and blocks are neither counted nor tested, and a cache
// that never sees an object never allocates a sketch.
package cache

import (
	"strings"
	"sync"
)

// entry is one cached item, linked into one of its shard's two rings. It is
// 64 bytes, an allocator size class, and stays there: a flag in a field of its
// own would make it 80, and an object costs what it is charged.
type entry struct {
	prev, next *entry
	key        string
	// value is shared with readers for a page (never written again), owned
	// by the cache for an object (rewritten in place under the shard lock).
	value []byte
	// meta is the version an object entry holds, below tagMask, with the
	// entry's two flags above it.
	meta uint64
}

const (
	objectBit = 1 << 63 // an object; else a page or block
	warmBit   = 1 << 62 // linked into the warm ring; else cold
	tagMask   = warmBit - 1
)

func (e *entry) object() bool { return e.meta&objectBit != 0 }
func (e *entry) warm() bool   { return e.meta&warmBit != 0 }
func (e *entry) tag() uint64  { return e.meta & tagMask }

// entryOverhead is what an entry costs the heap beyond its key and value
// bytes: the entry, its slot in an index three eighths to three quarters full
// (11 to 21 bytes) and the key string's round-up to its size class.
// TestEntryOverheadIsMeasured holds the constant to the measured figure, 78
// to 86.
const entryOverhead = 80

// objectBuf is the buffer size an object of n bytes gets: a multiple of 16,
// so that a value whose size wobbles keeps its buffer, and the charge is a
// function of the sizes alone.
func objectBuf(n int) int { return (n + 15) &^ 15 }

// charge is what e is booked at: key, value (an object's whole buffer) and
// entryOverhead.
func (e *entry) charge() int64 {
	n := len(e.value)
	if e.object() {
		n = cap(e.value)
	}
	return int64(len(e.key)+n) + entryOverhead
}

func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// linkNewest makes e the newest entry of ring (its sentinel).
func (e *entry) linkNewest(ring *entry) {
	e.prev, e.next = ring, ring.next
	ring.next.prev = e
	ring.next = e
}

// table indexes a shard's entries by key: open addressing over a power-of-two
// array of entries, linear probing, deletion by shifting the run back, at
// most three quarters full. It is here because a cache that is full deletes
// one key for every key it inserts, and a built-in map doing that settles a
// third full, at 80 bytes an entry where this spends 8 to 21; it also reuses
// the hash that chose the shard.
type table struct {
	slots []*entry
	n     int
}

// hashKey is FNV-1a. Its low bits choose the shard, the rest the slot.
func hashKey(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (t *table) home(h uint32) int { return int(h/nShards) & (len(t.slots) - 1) }

// find returns key's entry, or nil, and the slot it is in or would take.
func (t *table) find(h uint32, key string) (*entry, int) {
	for i := t.home(h); ; i = (i + 1) & (len(t.slots) - 1) {
		if e := t.slots[i]; e == nil || e.key == key {
			return e, i
		}
	}
}

// insert adds e, whose key find did not find.
func (t *table) insert(h uint32, e *entry) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]*entry, 2*len(old))
		for _, o := range old {
			if o != nil {
				_, i := t.find(hashKey(o.key), o.key)
				t.slots[i] = o
			}
		}
	}
	_, i := t.find(h, e.key)
	t.slots[i] = e
	t.n++
}

// delete removes the entry in slot i and closes the gap: every entry after
// it in the run moves back unless that would put it before its home slot.
func (t *table) delete(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if home := t.home(hashKey(t.slots[j].key)); (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = nil
	t.n--
}

// shard is an independently locked cache. Hit/miss tallies live per shard,
// under the lock Get already holds, so parallel readers never contend on a
// shared counter cache line; Usage aggregates them on demand.
//
// Entries age in two rings (sentinels; next is the newest entry, prev the
// oldest). A new page enters cold; a hit moves an entry to warm; warm is
// capped, and its overflow falls back to cold's newest end; the victim is
// cold's oldest. A page read once — a scan — therefore passes through cold
// without displacing anything that has been hit, and objects, which are
// cached only because a point read asked for them, enter warm directly.
//
// freq counts object probes and refreshes; an object that has to evict to get
// in is admitted only if it has been counted more often than its victim
// (admit). capacity is what the entries may use: the shard's share of the
// budget, less the sketch once the first object call has made one (counting).
type shard struct {
	mu          sync.Mutex
	capacity    int64
	warmCap     int64
	used        int64
	warmUsed    int64
	objects     int64
	objectBytes int64
	hits        uint64
	misses      uint64
	rejected    uint64
	cold, warm  entry
	items       table
	freq        sketch
	onEvict     func(key string, value []byte)
}

// LRU is a sharded, scan-resistant least-recently-used byte cache.
type LRU struct {
	shards []shard
}

const nShards = 16

// NewLRU creates a cache with the given total byte capacity. onEvict, if
// non-nil, runs outside the shard lock for every evicted page (objects are
// never handed out).
func NewLRU(capacity int64, onEvict func(key string, value []byte)) *LRU {
	c := &LRU{shards: make([]shard, nShards)}
	per := capacity / nShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity, s.warmCap = per, per/5*4
		s.items.slots = make([]*entry, 16)
		s.onEvict = onEvict
		s.cold.prev, s.cold.next = &s.cold, &s.cold
		s.warm.prev, s.warm.next = &s.warm, &s.warm
	}
	return c
}

// shardFor returns key's shard and hash.
func (c *LRU) shardFor(key string) (*shard, uint32) {
	h := hashKey(key)
	return &c.shards[h%nShards], h
}

// book enters e's charge into (sign +1), or takes it out of (-1), every
// account e belongs to as it stands: bracket a change to its value or flags.
func (s *shard) book(e *entry, sign int64) {
	c := sign * e.charge()
	s.used += c
	if e.warm() {
		s.warmUsed += c
	}
	if e.object() {
		s.objects += sign
		s.objectBytes += c
	}
}

// use makes e warm's newest entry: something asked for it.
func (s *shard) use(e *entry) {
	if e.warm() {
		if s.warm.next != e {
			e.unlink()
			e.linkNewest(&s.warm)
		}
		return
	}
	e.unlink()
	s.enterWarm(e)
}

// enterWarm links an unlinked, booked, cold e as warm's newest entry —
// cold's, if it alone would overflow warm — and sends warm's overflow back
// to cold.
func (s *shard) enterWarm(e *entry) {
	c := e.charge()
	if c > s.warmCap {
		e.linkNewest(&s.cold)
		return
	}
	e.meta |= warmBit
	e.linkNewest(&s.warm)
	s.warmUsed += c
	s.trimWarm()
}

func (s *shard) trimWarm() {
	for s.warmUsed > s.warmCap {
		o := s.warm.prev
		o.unlink()
		o.meta &^= warmBit
		s.warmUsed -= o.charge()
		o.linkNewest(&s.cold)
	}
}

// remove takes e, in slot i of the index, out of its ring, the index and
// the accounts.
func (s *shard) remove(e *entry, i int) {
	e.unlink()
	s.items.delete(i)
	s.book(e, -1)
}

// spilled is an evicted page on its way to onEvict.
type spilled struct {
	key   string
	value []byte
}

// evict removes victims — cold's oldest, warm's once cold is empty — until
// used is at most limit, and returns the last one for its struct and buffer
// to be reused. Evicted pages are collected for onEvict when there is one.
func (s *shard) evict(limit int64, spill *[]spilled) (last *entry) {
	for s.used > limit {
		v := s.cold.prev
		if v == &s.cold {
			if v = s.warm.prev; v == &s.warm {
				break
			}
		}
		_, i := s.items.find(hashKey(v.key), v.key)
		s.remove(v, i)
		if s.onEvict != nil && !v.object() {
			*spill = append(*spill, spilled{v.key, v.value})
		}
		last = v
	}
	return last
}

// admit is TinyLFU's rule for an object that has to evict to get in: the
// sketch must have counted it more often than the entry that would leave
// first — cold's oldest, else warm's oldest. Without it every fill of a
// one-hit object pushes out a hot one.
func (s *shard) admit(h uint32) bool {
	v := s.cold.prev
	if v == &s.cold {
		if v = s.warm.prev; v == &s.warm {
			return true
		}
	}
	return s.freq.estimate(h) > s.freq.estimate(hashKey(v.key))
}

// counting readies s for an object call: the first one makes the sketch and
// takes its bytes out of the entries' budget, evicting to fit. A cache of
// pages and blocks alone — the baselines' — never pays for one. A shard too
// small for its sketch holds no objects.
func (s *shard) counting(spill *[]spilled) {
	if s.freq.words != nil {
		return
	}
	s.freq = newSketch(s.capacity)
	s.capacity = max(s.capacity-s.freq.bytes(), 0)
	s.warmCap = s.capacity / 5 * 4
	s.trimWarm()
	s.evict(s.capacity, spill)
}

func (s *shard) unlockAndSpill(spill []spilled) {
	s.mu.Unlock()
	for _, e := range spill {
		s.onEvict(e.key, e.value)
	}
}

// Get returns the page cached under key and counts the use.
func (c *LRU) Get(key string) ([]byte, bool) {
	s, h := c.shardFor(key)
	s.mu.Lock()
	e, _ := s.items.find(h, key)
	if e == nil || e.object() {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	s.use(e)
	v := e.value
	s.mu.Unlock()
	return v, true
}

// Put caches a page under key, replacing what key held. The cache shares
// value with every reader, so it must not be written again. A new page is
// not a use: it enters cold. Values larger than a shard are rejected
// silently (they would evict everything for one item).
func (c *LRU) Put(key string, value []byte) {
	s, h := c.shardFor(key)
	charge := int64(len(key)+len(value)) + entryOverhead
	var spill []spilled
	s.mu.Lock() // before capacity: a shard's first object call shrinks it
	if charge > s.capacity {
		s.mu.Unlock()
		return
	}
	if e, _ := s.items.find(h, key); e != nil {
		s.book(e, -1)
		e.value, e.meta = value, e.meta&warmBit
		s.book(e, +1)
		s.trimWarm()
		s.evict(s.capacity, &spill)
	} else {
		e := s.evict(s.capacity-charge, &spill)
		if e == nil {
			e = new(entry)
		}
		*e = entry{key: strings.Clone(key), value: value}
		s.items.insert(h, e)
		s.book(e, +1)
		e.linkNewest(&s.cold)
	}
	s.unlockAndSpill(spill)
}

// Delete removes key if present.
func (c *LRU) Delete(key string) {
	s, h := c.shardFor(key)
	s.mu.Lock()
	if e, i := s.items.find(h, key); e != nil {
		s.remove(e, i)
	}
	s.mu.Unlock()
}

// GetObject appends key's cached object to dst[:0] and returns it with the
// version it holds, and counts the use, in the sketch too. A miss counts only
// when countMiss is set: a caller that asks before it knows the key is one the
// cache may hold — the zone tier, ahead of its index — leaves the sketch and
// the tallies as a caller that never asked would. The copy is taken under the
// shard lock: writers reuse the cached buffer.
func (c *LRU) GetObject(key string, dst []byte, countMiss bool) (value []byte, tag uint64, ok bool) {
	s, h := c.shardFor(key)
	var spill []spilled
	s.mu.Lock()
	if countMiss {
		s.counting(&spill)
	}
	e, _ := s.items.find(h, key)
	if e == nil || !e.object() {
		if countMiss {
			s.freq.add(h)
			s.misses++
		}
		s.unlockAndSpill(spill)
		return nil, 0, false
	}
	s.freq.add(h)
	s.hits++
	s.use(e)
	dst, tag = append(dst[:0], e.value...), e.tag()
	s.unlockAndSpill(spill)
	if dst == nil {
		dst = []byte{}
	}
	return dst, tag, true
}

// PutObject caches a copy of value as version tag of key, unless key is
// cached at that version or a newer one: a reader filling the cache after a
// miss must not undo a writer's refresh. The object was asked for, so it
// enters warm — if it is admitted: a key that is not cached and has to evict
// to get in must be counted more often than the entry it would evict first
// (admit). A refused fill only goes uncached; the caller has its value.
func (c *LRU) PutObject(key string, tag uint64, value []byte) {
	c.putObject(key, tag, value, fill)
}

// PromoteObject is PutObject without the admission test, for a key the
// caller has found hot by a signal of its own — the zone tier's promotions,
// chosen by the hotness tracker from reads the sketch never saw.
func (c *LRU) PromoteObject(key string, tag uint64, value []byte) {
	c.putObject(key, tag, value, promote)
}

// RefreshObject replaces key's cached object with version tag, whatever
// version it held, and does nothing when key is not cached: a write keeps
// what readers brought in current but brings nothing in. It moves nothing
// in the rings, but the sketch counts it: a written key is a used one.
func (c *LRU) RefreshObject(key string, tag uint64, value []byte) {
	c.putObject(key, tag, value, refresh)
}

// objectWrite is what putObject is asked to do.
type objectWrite int

const (
	refresh objectWrite = iota // RefreshObject
	fill                       // PutObject
	promote                    // PromoteObject
)

func (c *LRU) putObject(key string, tag uint64, value []byte, op objectWrite) {
	s, h := c.shardFor(key)
	need := objectBuf(len(value))
	charge := int64(len(key)+need) + entryOverhead
	tag &= tagMask
	var spill []spilled
	s.mu.Lock()
	s.counting(&spill)
	if op == refresh {
		s.freq.add(h)
	}
	e, i := s.items.find(h, key)
	switch {
	case e == nil && op == refresh: // nothing to refresh
	case e != nil && op != refresh && e.object() && e.tag() >= tag: // a slow reader's fill
	case charge > s.capacity:
		if e != nil {
			s.remove(e, i)
		}
	case e != nil && op == refresh:
		s.book(e, -1)
		if e.object() && cap(e.value) == need {
			e.value = append(e.value[:0], value...)
		} else {
			e.value = append(make([]byte, 0, need), value...)
		}
		e.meta = objectBit | e.meta&warmBit | tag
		s.book(e, +1)
		s.trimWarm()
		s.evict(s.capacity, &spill)
	case e == nil && op == fill && s.used+charge > s.capacity && !s.admit(h):
		s.rejected++
	default:
		if e != nil {
			s.remove(e, i) // a fill over an older version is an insert that recycles it
		}
		if v := s.evict(s.capacity-charge, &spill); v != nil {
			e = v
		}
		var buf []byte
		if e == nil {
			e = new(entry)
		} else if e.object() && cap(e.value) == need {
			buf = e.value[:0]
		}
		if buf == nil {
			buf = make([]byte, 0, need)
		}
		*e = entry{key: strings.Clone(key), value: append(buf, value...), meta: objectBit | tag}
		s.items.insert(h, e)
		s.book(e, +1)
		s.enterWarm(e)
	}
	s.unlockAndSpill(spill)
}

// Usage says what the cache holds, in the bytes it charges — each entry's key
// and value plus entryOverhead, and the sketches — and how its probes have
// gone.
type Usage struct {
	Capacity    int64
	Used        int64
	WarmBytes   int64 // of Used, entries that have been hit (or are objects)
	SketchBytes int64 // of Used, the frequency sketches
	Entries     int
	Objects     int   // of Entries, objects rather than pages and blocks
	ObjectBytes int64 // of Used
	// Hits and Misses count Get and GetObject probes since creation;
	// Rejected counts object fills admission refused.
	Hits, Misses, Rejected uint64
}

// Usage sums the shards' accounts, each read under its lock.
func (c *LRU) Usage() Usage {
	var u Usage
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		u.Capacity += s.capacity + s.freq.bytes()
		u.Used += s.used + s.freq.bytes()
		u.WarmBytes += s.warmUsed
		u.SketchBytes += s.freq.bytes()
		u.Entries += s.items.n
		u.Objects += int(s.objects)
		u.ObjectBytes += s.objectBytes
		u.Hits += s.hits
		u.Misses += s.misses
		u.Rejected += s.rejected
		s.mu.Unlock()
	}
	return u
}

// HitRate returns hits/(hits+misses) since creation, or 0 when unused.
func (c *LRU) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Stats returns raw hit/miss counts summed across shards.
func (c *LRU) Stats() (hits, misses uint64) {
	u := c.Usage()
	return u.Hits, u.Misses
}
