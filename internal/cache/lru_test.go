package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// sameShardKeys returns n keys that hash to one shard of c, so a test can
// reason about a single pair of rings with a sixteenth of the capacity.
func sameShardKeys(c *LRU, n int) []string {
	s, _ := c.shardFor("probe")
	var ks []string
	for i := 0; len(ks) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if sk, _ := c.shardFor(k); sk == s {
			ks = append(ks, k)
		}
	}
	return ks
}

// lookup is the index's answer for key.
func (s *shard) lookup(key string) *entry {
	e, _ := s.items.find(hashKey(key), key)
	return e
}

// modelEntry and model are the reference the cache is checked against: one
// shard as two slices ordered oldest first, every account recomputed by
// summing, every policy decision written the slow obvious way.
type modelEntry struct {
	key    string
	value  []byte
	tag    uint64
	object bool
	charge int64
}

type model struct {
	cold, warm        []modelEntry
	capacity, warmCap int64
	spilled           []string
	freq              *modelSketch // nil until the first object call
	// admission off is the policy before the sketch: every fill gets in.
	admission bool
	rejected  uint64
}

// newModel is the reference for shard s, which has not been used yet.
func newModel(s *shard, admission bool) *model {
	return &model{capacity: s.capacity, warmCap: s.warmCap, admission: admission}
}

// counting: the first object call makes the sketch, shaped and sized as the
// shard's, and takes its bytes out of the budget.
func (m *model) counting() {
	if m.freq != nil {
		return
	}
	shape := newSketch(m.capacity)
	m.freq = &modelSketch{shape: sketch{widthBits: shape.widthBits, sample: shape.sample},
		counts: make([]int, sketchRows<<shape.widthBits)}
	m.capacity = max(m.capacity-shape.bytes(), 0)
	m.warmCap = m.capacity / 5 * 4
	m.settle(m.capacity)
}

// modelSketch is the sketch with a whole int per counter and every step
// spelled out; it borrows only the shape — where a key's counters are, and
// when to age.
type modelSketch struct {
	shape     sketch
	counts    []int
	additions int
}

func (k *modelSketch) add(key string) {
	for r := 0; r < sketchRows; r++ {
		if i := k.shape.index(hashKey(key), r); k.counts[i] < 15 {
			k.counts[i]++
		}
	}
	k.additions++
	if k.additions == k.shape.sample {
		k.additions = 0
		for i := range k.counts {
			k.counts[i] /= 2
		}
	}
}

func (k *modelSketch) estimate(key string) int {
	est := 15
	for r := 0; r < sketchRows; r++ {
		est = min(est, k.counts[k.shape.index(hashKey(key), r)])
	}
	return est
}

func sum(ring []modelEntry) (n int64) {
	for _, e := range ring {
		n += e.charge
	}
	return n
}

// take removes key's entry from whichever ring holds it.
func (m *model) take(key string) (e modelEntry) {
	for _, ring := range []*[]modelEntry{&m.cold, &m.warm} {
		if i := slices.IndexFunc(*ring, func(e modelEntry) bool { return e.key == key }); i >= 0 {
			e = (*ring)[i]
			*ring = slices.Delete(*ring, i, i+1)
		}
	}
	return e
}

// put links e as the newest of warm or cold, then settles both budgets.
func (m *model) put(e modelEntry, warm bool) {
	if warm && e.charge <= m.warmCap {
		m.warm = append(m.warm, e)
	} else {
		m.cold = append(m.cold, e)
	}
	m.settle(m.capacity)
}

// settle sends warm's overflow (oldest first) to cold's newest end, then
// evicts — cold's oldest, warm's once cold is empty — down to limit.
func (m *model) settle(limit int64) {
	for sum(m.warm) > m.warmCap {
		m.cold = append(m.cold, m.warm[0])
		m.warm = m.warm[1:]
	}
	for sum(m.cold)+sum(m.warm) > limit {
		ring := &m.cold
		if len(*ring) == 0 {
			ring = &m.warm
		}
		if !(*ring)[0].object {
			m.spilled = append(m.spilled, (*ring)[0].key)
		}
		*ring = (*ring)[1:]
	}
}

// find returns a pointer to key's entry in place.
func (m *model) find(key string) *modelEntry {
	for _, ring := range [][]modelEntry{m.cold, m.warm} {
		for i := range ring {
			if ring[i].key == key {
				return &ring[i]
			}
		}
	}
	return nil
}

func (m *model) get(key string) ([]byte, bool) {
	if e := m.find(key); e == nil || e.object {
		return nil, false
	}
	e := m.take(key)
	m.put(e, true)
	return e.value, true
}

func (m *model) getObject(key string, tag uint64) ([]byte, bool) {
	m.counting()
	m.freq.add(key)
	if e := m.find(key); e == nil || !e.object || e.tag != tag {
		return nil, false
	}
	e := m.take(key)
	m.put(e, true)
	return e.value, true
}

func (m *model) putPage(key string, value []byte) {
	charge := int64(len(key)+len(value)) + entryOverhead
	if charge > m.capacity {
		return
	}
	if e := m.find(key); e != nil {
		*e = modelEntry{key: key, value: value, charge: charge}
		m.settle(m.capacity)
		return
	}
	m.settle(m.capacity - charge) // room first: the newcomer is never its own victim
	m.put(modelEntry{key: key, value: value, charge: charge}, false)
}

func (m *model) putObject(key string, tag uint64, value []byte, op objectWrite) {
	ne := modelEntry{key: key, value: bytes.Clone(value), tag: tag, object: true,
		charge: int64(len(key)+objectBuf(len(value))) + entryOverhead}
	m.counting()
	if op == refresh {
		m.freq.add(key) // a write is an access
	}
	e := m.find(key)
	absent := e == nil
	if e != nil && op != refresh {
		if e.object && e.tag >= tag {
			return
		}
		m.take(key) // an older version makes way
		e = nil
	}
	switch {
	case e != nil && ne.charge > m.capacity:
		m.take(key)
	case e != nil:
		*e = ne
		m.settle(m.capacity)
	case op != refresh && ne.charge <= m.capacity:
		// Only a reader's fill is tested; a promotion is let in.
		if op == fill && absent && sum(m.cold)+sum(m.warm)+ne.charge > m.capacity && !m.admit(key) {
			m.rejected++
			return
		}
		m.settle(m.capacity - ne.charge)
		m.put(ne, true)
	}
}

// admit: the newcomer's estimate must beat that of the entry the fill would
// evict first, cold's oldest, or warm's oldest when cold is empty.
func (m *model) admit(key string) bool {
	if !m.admission {
		return true
	}
	victim := m.warm
	if len(m.cold) > 0 {
		victim = m.cold
	}
	return len(victim) == 0 || m.freq.estimate(key) > m.freq.estimate(victim[0].key)
}

// ringKeys walks one ring of s oldest first, checking the links and flags.
func ringKeys(t testing.TB, s *shard, ring *entry) (keys []string, charge int64) {
	for e := ring.prev; e != ring; e = e.prev {
		if e.next.prev != e || e.prev.next != e {
			t.Fatalf("entry %q: broken links", e.key)
		}
		if e.warm() != (ring == &s.warm) {
			t.Fatalf("entry %q: warm=%v in the wrong ring", e.key, e.warm())
		}
		if s.lookup(e.key) != e {
			t.Fatalf("entry %q is linked but is not the index's", e.key)
		}
		keys = append(keys, e.key)
		charge += e.charge()
		if len(keys) > s.items.n {
			t.Fatalf("ring holds more entries than the index (%d): an entry is in two rings or a ring is cyclic", s.items.n)
		}
	}
	return keys, charge
}

func modelKeys(ring []modelEntry) (keys []string) {
	for _, e := range ring {
		keys = append(keys, e.key)
	}
	return keys
}

// objectValue is the self-describing value the model run stores under a tag.
func objectValue(tag uint64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(tag) + byte(i)
	}
	return v
}

// runAgainstModel drives one shard of a cache and the model through the same
// operations, three bytes each — op, key, size/tag — and after every one
// requires the same answer, the same entries in the same order in each ring
// (hence the same victims), every entry in exactly one ring, both budgets
// held and every account equal to the sum it stands for.
func runAgainstModel(t testing.TB, ops []byte) {
	const perShard = 3000
	var spilled []string
	c := NewLRU(nShards*perShard, func(key string, _ []byte) { spilled = append(spilled, key) })
	ks := sameShardKeys(c, 12)
	s, _ := c.shardFor(ks[0])
	m := newModel(s, true)
	for i := 0; i+2 < len(ops); i += 3 {
		op, key, arg := ops[i]%7, ks[int(ops[i+1])%len(ks)], ops[i+2]
		// Sizes from 0 to 1 530 bytes: a few objects fill warm, two large
		// pages overflow the shard, and the largest is over warm's cap.
		size, tag := int(arg%52)*30, uint64(arg%5)+1
		what := fmt.Sprintf("op %d: %d(%s, size %d, tag %d)", i/3, op, key, size, tag)
		switch op {
		case 0:
			got, ok := c.Get(key)
			want, wok := m.get(key)
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get = %d bytes, %v; model %d bytes, %v", what, len(got), ok, len(want), wok)
			}
		case 1:
			page := make([]byte, size)
			c.Put(key, page)
			m.putPage(key, page)
		case 2:
			c.Delete(key)
			m.take(key)
		case 3:
			got, ok := c.GetObject(key, tag, nil)
			want, wok := m.getObject(key, tag)
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("%s: GetObject = %x, %v; model %x, %v", what, got, ok, want, wok)
			}
			if ok && !bytes.Equal(got, objectValue(tag, len(got))) {
				t.Fatalf("%s: GetObject returned bytes stored under another tag: %x", what, got)
			}
		case 4:
			c.PutObject(key, tag, objectValue(tag, size))
			m.putObject(key, tag, objectValue(tag, size), fill)
		case 5:
			c.RefreshObject(key, tag, objectValue(tag, size))
			m.putObject(key, tag, objectValue(tag, size), refresh)
		case 6:
			c.PromoteObject(key, tag, objectValue(tag, size))
			m.putObject(key, tag, objectValue(tag, size), promote)
		}
		cold, coldBytes := ringKeys(t, s, &s.cold)
		warm, warmBytes := ringKeys(t, s, &s.warm)
		if !slices.Equal(cold, modelKeys(m.cold)) || !slices.Equal(warm, modelKeys(m.warm)) {
			t.Fatalf("%s:\n cache cold %v warm %v\n model cold %v warm %v", what, cold, warm, modelKeys(m.cold), modelKeys(m.warm))
		}
		if len(cold)+len(warm) != s.items.n {
			t.Fatalf("%s: %d entries linked, %d in the index", what, len(cold)+len(warm), s.items.n)
		}
		if s.used != coldBytes+warmBytes || s.warmUsed != warmBytes || s.used > s.capacity || s.warmUsed > s.warmCap {
			t.Fatalf("%s: used %d (rings hold %d, capacity %d), warm %d (ring holds %d, cap %d)",
				what, s.used, coldBytes+warmBytes, s.capacity, s.warmUsed, warmBytes, s.warmCap)
		}
		var objects, objectBytes int64
		for _, e := range s.items.slots {
			if e == nil {
				continue
			}
			me := m.find(e.key)
			if me.object != e.object() || me.charge != e.charge() || me.tag != e.tag() || !bytes.Equal(me.value, e.value) {
				t.Fatalf("%s: entry %q is {object %v, tag %d, charge %d, %d bytes}, model {object %v, tag %d, charge %d, %d bytes}",
					what, e.key, e.object(), e.tag(), e.charge(), len(e.value), me.object, me.tag, me.charge, len(me.value))
			}
			if e.object() {
				objects++
				objectBytes += e.charge()
			}
		}
		if s.objects != objects || s.objectBytes != objectBytes {
			t.Fatalf("%s: accounts say %d objects in %d bytes, entries say %d in %d", what, s.objects, s.objectBytes, objects, objectBytes)
		}
		if !slices.Equal(spilled, m.spilled) {
			t.Fatalf("%s: onEvict saw %v, model evicted pages %v", what, spilled, m.spilled)
		}
		if s.rejected != m.rejected {
			t.Fatalf("%s: %d fills refused, model %d", what, s.rejected, m.rejected)
		}
		if s.capacity != m.capacity || s.warmCap != m.warmCap {
			t.Fatalf("%s: budgets %d and %d for warm, model %d and %d", what, s.capacity, s.warmCap, m.capacity, m.warmCap)
		}
	}
}

// modelSeeds are op streams that reach the corners by construction; the
// random streams of TestLRUAgainstModel reach them by volume.
var modelSeeds = [][]byte{
	// Objects fill warm and overflow to cold; pages push the overflow out.
	{4, 0, 10, 4, 1, 10, 4, 2, 10, 4, 3, 10, 4, 4, 10, 4, 5, 10, 1, 6, 40, 1, 7, 40, 3, 0, 10, 3, 5, 10},
	// A page is hit into warm, replaced by a larger one, then by an object.
	{1, 0, 5, 0, 0, 0, 1, 0, 30, 4, 0, 7, 3, 0, 7, 1, 0, 2, 0, 0, 0},
	// Refresh: a miss inserts nothing, a hit keeps its place, growth evicts.
	{5, 0, 3, 3, 0, 3, 4, 0, 3, 5, 0, 4, 3, 0, 4, 3, 0, 3, 5, 0, 51, 4, 1, 50, 5, 1, 51},
	// A fill never replaces a newer tag; delete then refill does.
	{4, 0, 4, 4, 0, 3, 3, 0, 4, 2, 0, 0, 4, 0, 3, 3, 0, 3},
	// Entries over warm's cap are used in cold; one over the shard is refused.
	{1, 0, 51, 0, 0, 0, 0, 0, 0, 4, 1, 51, 3, 1, 1, 1, 2, 49, 1, 3, 49, 1, 4, 49},
	// Admission: seven objects fill the shard and two are hit; a newcomer
	// seen once is refused, and admitted once it has been seen three times —
	// more often than cold's oldest, less often than warm's newest.
	{3, 0, 10, 4, 0, 10, 3, 1, 10, 4, 1, 10, 3, 2, 10, 4, 2, 10, 3, 3, 10, 4, 3, 10,
		3, 4, 10, 4, 4, 10, 3, 5, 10, 4, 5, 10, 3, 6, 10, 4, 6, 10,
		3, 1, 10, 3, 2, 10, 3, 1, 10, 3, 2, 10, 3, 1, 10, 3, 2, 10,
		3, 7, 10, 4, 7, 10, 3, 7, 10, 3, 7, 10, 4, 7, 10, 3, 7, 10},
	// Three pages fill the shard; the first object call charges the sketch,
	// which evicts the oldest.
	{1, 0, 30, 1, 1, 30, 1, 2, 30, 3, 3, 1, 0, 0, 0, 0, 1, 0},
	// A fill of a key never counted is refused from a full shard; its
	// promotion is let in and hit.
	{4, 0, 10, 4, 1, 10, 4, 2, 10, 4, 3, 10, 4, 4, 10, 4, 5, 10, 4, 6, 10,
		4, 7, 10, 6, 7, 10, 3, 7, 10},
}

func TestLRUAgainstModel(t *testing.T) {
	for _, seed := range modelSeeds {
		runAgainstModel(t, seed)
	}
	rng := uint64(1)
	for run := 0; run < 40; run++ {
		ops := make([]byte, 3*2000)
		for i := range ops {
			rng = rng*6364136223846793005 + 1442695040888963407
			ops[i] = byte(rng >> 56)
		}
		runAgainstModel(t, ops)
	}
}

func FuzzLRUAgainstModel(f *testing.F) {
	for _, seed := range modelSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runAgainstModel(t, ops) })
}

// TestScanDoesNotFlushHotObjects: objects that have been read survive ten
// capacities of pages that are read once each. With a single ring the pages
// would push every one of them out.
func TestScanDoesNotFlushHotObjects(t *testing.T) {
	const capacity = 1 << 20
	c := NewLRU(capacity, nil)
	key := func(i int) string { return fmt.Sprintf("V%05d", i) }
	value := make([]byte, 150)
	for i := 0; i < 1000; i++ {
		c.PutObject(key(i), 1, value)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			if _, ok := c.GetObject(key(i), 1, nil); !ok {
				t.Fatalf("object %d missed before the scan", i)
			}
		}
	}
	page := make([]byte, 4096)
	for i := 0; i < 10*capacity/len(page); i++ {
		k := fmt.Sprintf("Z%07d", i)
		if _, ok := c.Get(k); !ok {
			c.Put(k, page)
		}
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if _, ok := c.GetObject(key(i), 1, nil); ok {
			hits++
		}
	}
	if u := c.Usage(); hits < 900 || u.Used > u.Capacity {
		t.Fatalf("%d of 1000 hot objects survived the scan; usage %+v", hits, u)
	}
}

// TestEntryOverheadIsMeasured holds entryOverhead to what an entry costs the
// heap beyond its key and value bytes, measured where the engine's cache
// lives: full, every insert evicting, on the shape it caches most (a 13-byte
// key and a 128-byte object), at the benchmark's 10 MiB, where the index is
// three fifths full, and at 24 MiB, where it has just doubled. The keys are
// promoted: a stream of keys each seen once is what admission refuses, and a
// refused fill would leave the cache as it was.
func TestEntryOverheadIsMeasured(t *testing.T) {
	if unsafe.Sizeof(entry{}) != 64 {
		t.Fatalf("an entry is %d bytes, not the 64-byte size class entryOverhead assumes", unsafe.Sizeof(entry{}))
	}
	var key [13]byte
	value := make([]byte, 128)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, capacity := range []int64{10 << 20, 24 << 20} {
		before := heap()
		c := NewLRU(capacity, nil)
		inserts := int(capacity / 25) // about ten times what fits
		for i := 0; i < inserts; i++ {
			binary.LittleEndian.PutUint64(key[5:], uint64(i))
			c.PromoteObject(string(key[:]), 1, value)
		}
		u := c.Usage()
		if u.Rejected != 0 || u.Entries > inserts/5 {
			t.Fatalf("%d inserts left %d entries, %d refused: the cache did not turn over", inserts, u.Entries, u.Rejected)
		}
		// The sketches are charged on their own line.
		per := float64(heap()-before-uint64(u.SketchBytes))/float64(u.Entries) - float64(len(key)+len(value))
		runtime.KeepAlive(c)
		t.Logf("%d MiB, %d entries: an entry costs %.0f bytes beyond its key and value; entryOverhead = %d", capacity>>20, u.Entries, per, entryOverhead)
		if per > entryOverhead*1.1 || per < entryOverhead*0.85 {
			t.Fatalf("entryOverhead = %d, measured %.0f", entryOverhead, per)
		}
	}
}

var benchSink []byte

// BenchmarkObjectCache prices the things the zone tier does to the object
// cache, on its key and value shape, with the shards at capacity. Every op of
// the last two is a fill of a key never counted: PutObject refuses it (its
// victim ties it at 0), PromoteObject lets it in and evicts.
func BenchmarkObjectCache(b *testing.B) {
	const n = 1 << 16
	value := make([]byte, 128)
	var kb [13]byte
	kb[0] = 'V'
	// run times op b.N times on a cache preloaded with n keys, then asks want
	// whether the ops did what they are named for.
	run := func(name string, capacity int64, op func(c *LRU, key string, i int), want func(c *LRU, ops int) bool) {
		b.Run(name, func(b *testing.B) {
			c := NewLRU(capacity, nil)
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint64(kb[5:], uint64(i))
				c.PromoteObject(string(kb[:]), 1, value)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(kb[5:], uint64(i*7919)%n)
				op(c, string(kb[:]), i)
			}
			b.StopTimer()
			if !want(c, b.N) {
				b.Fatalf("%d ops left the cache at %+v", b.N, c.Usage())
			}
		})
	}
	dst := make([]byte, 0, 256)
	run("hit", 1<<30, func(c *LRU, key string, _ int) { benchSink, _ = c.GetObject(key, 1, dst) },
		func(c *LRU, ops int) bool { return c.Usage().Hits == uint64(ops) })
	run("refresh-hit", 1<<30, func(c *LRU, key string, i int) { c.RefreshObject(key, uint64(i), value) },
		func(c *LRU, _ int) bool { return c.Usage().Objects == n })
	// The rest take keys the preload never used.
	run("refresh-miss", 1<<20, func(c *LRU, _ string, i int) {
		binary.BigEndian.PutUint64(kb[5:], uint64(n+i))
		c.RefreshObject(string(kb[:]), uint64(i), value)
	}, func(c *LRU, _ int) bool { return c.Usage().Objects < n })
	run("fill-refused", 1<<20, func(c *LRU, _ string, i int) {
		binary.BigEndian.PutUint64(kb[5:], uint64(n+i))
		c.PutObject(string(kb[:]), 1, value)
	}, func(c *LRU, ops int) bool { return c.Usage().Rejected == uint64(ops) })
	run("fill-with-eviction", 1<<20, func(c *LRU, _ string, i int) {
		binary.BigEndian.PutUint64(kb[5:], uint64(n+i))
		c.PromoteObject(string(kb[:]), 1, value)
	}, func(c *LRU, ops int) bool {
		_, ok := c.GetObject(string(kb[:]), 1, nil) // the last key promoted
		return ok
	})
}

// BenchmarkPagePutGet prices the BlockCache side: a hit, and a miss followed
// by the Put that evicts for it, on 4 KiB pages under the zone tier's keys.
func BenchmarkPagePutGet(b *testing.B) {
	page := make([]byte, 4096)
	var kb [10]byte
	kb[0] = 'Z'
	b.Run("hit", func(b *testing.B) {
		c := NewLRU(64<<20, nil)
		const n = 4096
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(kb[6:], uint32(i))
			c.Put(string(kb[:]), page)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint32(kb[6:], uint32(i*7919)%n)
			benchSink, _ = c.Get(string(kb[:]))
		}
	})
	b.Run("miss-put-evict", func(b *testing.B) {
		c := NewLRU(8<<20, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint32(kb[6:], uint32(i))
			if _, ok := c.Get(string(kb[:])); !ok {
				c.Put(string(kb[:]), page)
			}
		}
	})
}

// TestTableAgainstMap drives the shard index and a built-in map through the
// same inserts and deletes — short runs and long ones, through three
// doublings, keys sharing their low hash bits as a shard's do — and requires
// the same answer for every key, present or deleted, after every step.
func TestTableAgainstMap(t *testing.T) {
	tb := table{slots: make([]*entry, 16)}
	ref := map[string]*entry{}
	var keys []string
	for i := 0; len(keys) < 400; i++ {
		if k := fmt.Sprintf("k%d", i); hashKey(k)%nShards == 3 {
			keys = append(keys, k)
		}
	}
	rng := uint64(7)
	for step := 0; step < 20000; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		// The live set swings between a handful and nearly all the keys.
		k := keys[(rng>>33)%uint64(len(keys))]
		grow := step/2500%2 == 0
		e, i := tb.find(hashKey(k), k)
		if e != ref[k] {
			t.Fatalf("step %d: find(%s) = %p, want %p", step, k, e, ref[k])
		}
		switch {
		case e == nil && (grow || rng>>60 < 4):
			e = &entry{key: k}
			tb.insert(hashKey(k), e)
			ref[k] = e
		case e != nil && (!grow || rng>>60 < 4):
			tb.delete(i)
			delete(ref, k)
		}
		if step%97 == 0 || len(ref) < 3 {
			for _, k := range keys {
				if e, _ := tb.find(hashKey(k), k); e != ref[k] {
					t.Fatalf("step %d: find(%s) = %p, want %p", step, k, e, ref[k])
				}
			}
		}
		if tb.n != len(ref) || 4*tb.n > 3*len(tb.slots) {
			t.Fatalf("step %d: n = %d of %d slots, want %d and at most three quarters", step, tb.n, len(tb.slots), len(ref))
		}
	}
	if len(tb.slots) < 128 {
		t.Fatalf("the index never grew: %d slots", len(tb.slots))
	}
}
