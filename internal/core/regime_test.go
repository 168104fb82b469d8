package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
	"hyperdb/internal/zone"
)

// regimeBatch is B in the regime tests' geometry.
const regimeBatch = 64 << 10

// regimeRig is one partition over a small performance tier with the workers
// off: the test inserts and steps the background itself, so every count it
// reads is a function of the seed.
type regimeRig struct {
	t          *testing.T
	nvme, sata *device.Device
	db         *DB
	rng        *rand.Rand
	keys       [][]byte // in insertion order
	acked      map[string][]byte
	// beforePass, when set, runs ahead of every background pass.
	beforePass func()
}

func regimeOpts(nvme, sata *device.Device, batch int64, noMirror bool) Options {
	return Options{
		NVMeDevice:     nvme,
		SATADevice:     sata,
		Partitions:     1,
		CacheBytes:     256 << 10,
		MigrationBatch: batch,
		// A hot zone small enough to overflow, under a watermark that leaves
		// room for rewriting it (an eviction holds old and new at once).
		HotZoneFraction:    0.05,
		HighWatermark:      0.7,
		DisableIndexMirror: noMirror,
		DisableBackground:  true,
		Tracker:            hotness.Config{WindowCapacity: 2048},
	}
}

func newRegimeRig(t *testing.T, nvmeCap, batch int64, noMirror bool) *regimeRig {
	t.Helper()
	r := &regimeRig{
		t:     t,
		nvme:  device.New(device.UnthrottledProfile("nvme", nvmeCap)),
		sata:  device.New(device.UnthrottledProfile("sata", 1<<30)),
		rng:   rand.New(rand.NewSource(16)),
		acked: map[string][]byte{},
	}
	db, err := Open(regimeOpts(r.nvme, r.sata, batch, noMirror))
	if err != nil {
		t.Fatal(err)
	}
	r.db = db
	t.Cleanup(func() { r.db.Close() })
	return r
}

// step is the benchmark driver's pass: one MigrationStep, then compaction
// until none is left.
func (r *regimeRig) step() error {
	if err := r.db.MigrationStep(0); err != nil {
		return err
	}
	for {
		if did, err := r.db.CompactionStep(0); err != nil || !did {
			return err
		}
	}
}

func (r *regimeRig) pass() {
	r.t.Helper()
	if r.beforePass != nil {
		r.beforePass()
	}
	if err := r.step(); err != nil {
		r.t.Fatalf("background pass: %v", err)
	}
}

// write puts one fresh key drawn uniformly from the keyspace: the zone grid
// is laid out for a sparse tier and the tier keeps getting denser, which is
// what leaves zones oversized.
func (r *regimeRig) write() {
	r.t.Helper()
	key := k8(r.rng.Uint64())
	val := make([]byte, 128)
	copy(val, key)
	binary.BigEndian.PutUint64(val[8:], uint64(len(r.keys)))
	if err := r.db.Put(key, val); err != nil {
		r.t.Fatalf("put %d: %v", len(r.keys), err)
	}
	r.keys = append(r.keys, key)
	r.acked[string(key)] = val
}

// due says whether the benchmark driver would run a pass now: the tier is at
// its high watermark, and in any case every 256 calls.
func (r *regimeRig) due() bool {
	return len(r.keys)%256 == 0 || r.nvme.UsedFraction() >= r.db.opts.HighWatermark
}

// insert writes n keys, running the passes that fall due.
func (r *regimeRig) insert(n int) {
	r.t.Helper()
	done := 0
	r.insertUntil(n, "", func() bool { done++; return done > n })
}

// read gets the n oldest keys — the likeliest to have been demoted — with a
// pass every 256 calls to drain the promotions they queue.
func (r *regimeRig) read(n int) {
	r.t.Helper()
	for i, k := range r.keys[:n] {
		if _, err := r.db.Get(k); err != nil {
			r.t.Fatalf("get %x: %v", k, err)
		}
		if i%256 == 255 {
			r.pass()
		}
	}
}

// heat reads the 1000 oldest keys in enough consecutive tracker windows to
// classify them hot, so that they are promoted and the hot zone overflows.
func (r *regimeRig) heat() {
	r.t.Helper()
	for round := 0; round < 6; round++ {
		r.read(1000)
		r.insert(1200)
	}
}

// insertUntil inserts until cond holds, at most limit keys.
func (r *regimeRig) insertUntil(limit int, what string, cond func() bool) {
	r.t.Helper()
	for i := 0; !cond(); i++ {
		if i == limit {
			r.t.Fatalf("%d inserts and still not %s", limit, what)
		}
		if r.write(); r.due() {
			r.pass()
		}
	}
}

func (r *regimeRig) checkAcked(db *DB, when string) {
	r.t.Helper()
	for k, want := range r.acked {
		if v, err := db.Get([]byte(k)); err != nil || !bytes.Equal(v, want) {
			r.t.Fatalf("%s: acked key %x reads %x, %v", when, k, v, err)
		}
	}
}

func (r *regimeRig) tiered() bool { return !r.db.parts[0].tree.Empty() }

func (r *regimeRig) ledger() zone.BgBytes { return r.db.Stats().Zone.Bg }

// TestTieredPartitionStopsRebuilding: insert-heavy load over a small tier.
// Until the partition's first demotion its oversized zones are rebuilt; from
// then on the rebuild counters must not move and every background byte the
// tier writes is a promotion's or a hot-zone eviction's (so the index mirror,
// whose backups are background NVMe writes too, is off).
func TestTieredPartitionStopsRebuilding(t *testing.T) {
	r := newRegimeRig(t, 2<<20, regimeBatch, true)
	r.insertUntil(40000, "tiered", r.tiered)
	at := r.ledger()
	if at.RebuildWrite == 0 {
		t.Fatal("no zone was rebuilt while the partition was resident; the test needs both regimes")
	}
	wrote := r.nvme.Counters().BgWriteBytes.Load()
	migrations := r.db.Stats().Zone.Migrations

	oversized := 0
	r.beforePass = func() {
		if z, _ := r.db.parts[0].zones.PickOversizedZone(); z != nil {
			oversized++
		}
	}
	r.insert(30000)
	r.heat() // promotions and hot-zone evictions are in the picture too
	r.insert(5000)

	if got := r.db.Stats().Zone.Migrations - migrations; got < 10 {
		t.Fatalf("%d demotions after the first: the load is not tiered", got)
	}
	if oversized == 0 {
		t.Fatal("no pass of the tiered phase began with an oversized zone; nothing was at stake")
	}
	now := r.ledger()
	if now.RebuildRead != at.RebuildRead || now.RebuildWrite != at.RebuildWrite {
		t.Fatalf("a tiered partition rebuilt zones: read %d -> %d, write %d -> %d bytes",
			at.RebuildRead, now.RebuildRead, at.RebuildWrite, now.RebuildWrite)
	}
	grew := r.nvme.Counters().BgWriteBytes.Load() - wrote
	want := (now.PromotionWrite - at.PromotionWrite) + (now.HotEvictWrite - at.HotEvictWrite)
	if grew != want {
		t.Fatalf("NVMe background writes grew by %d bytes, promotions and hot-zone evictions account for %d", grew, want)
	}
	r.checkAcked(r.db, "after the tiered phase")
}

// TestResidentPartitionStillRebuilds: the same load into a tier large enough
// never to demote. Its bootstrap-era zones must still be split down to size
// — that is the background traffic the resident benchmark workloads report.
func TestResidentPartitionStillRebuilds(t *testing.T) {
	r := newRegimeRig(t, 64<<20, regimeBatch, false)
	r.insert(40000)
	for i := 0; i < 64; i++ {
		r.pass()
	}
	st := r.db.Stats()
	if st.Zone.Migrations != 0 || r.tiered() {
		t.Fatalf("the resident rig demoted (%d migrations)", st.Zone.Migrations)
	}
	if st.Zone.Bg.RebuildRead == 0 || st.Zone.Bg.RebuildWrite == 0 {
		t.Fatalf("no rebuild traffic in the resident regime: %+v", st.Zone.Bg)
	}
	if limit := int64(zone.OversizeFactor * regimeBatch); st.Zone.MaxZoneBytes > limit {
		t.Fatalf("largest zone holds %d bytes after the rebuilds, limit %d", st.Zone.MaxZoneBytes, limit)
	}
	if got, want := st.Zone.Bg.Total(), st.NVMe.BgReadBytes+st.NVMe.BgWriteBytes; got != want {
		t.Fatalf("ledger %d bytes, device %d", got, want)
	}
	r.checkAcked(r.db, "after the rebuilds")
}

// TestOversizedZoneIsDemotedFirst: in the tiered regime a pass that finds
// the tier over its high watermark sends the oversized zone down before any
// better-scoring one, and because of that no migration batch outgrows
// 3×B in this geometry (OversizeFactor×B plus what one inter-pass gap adds).
func TestOversizedZoneIsDemotedFirst(t *testing.T) {
	r := newRegimeRig(t, 2<<20, regimeBatch, false)
	r.insertUntil(40000, "tiered", r.tiered)

	p := r.db.parts[0]
	var largest int64
	firsts, byRule := 0, 0
	r.beforePass = func() {
		largest = max(largest, p.zones.Stats().MaxZoneBytes)
		z, _ := p.zones.PickOversizedZone()
		if z == nil || r.nvme.UsedFraction() < r.db.opts.HighWatermark {
			return
		}
		if got := p.victim(); got != z {
			t.Fatalf("victim is zone %d (score %.0f), want the oversized zone %d (score %.0f)",
				got.ID(), got.Score(), z.ID(), z.Score())
		}
		firsts++
		if p.zones.PickDemotionVictim() != z {
			byRule++
		}
	}
	r.insert(40000)
	if firsts == 0 || byRule == 0 {
		t.Fatalf("%d passes began over the high watermark with an oversized zone, %d where score order would have taken another", firsts, byRule)
	}
	if limit := int64(3 * regimeBatch); largest > limit {
		t.Fatalf("a zone reached %d bytes before its pass, batch bound is %d", largest, limit)
	}
	if z, _ := p.zones.PickOversizedZone(); z != nil && r.nvme.UsedFraction() >= r.db.opts.HighWatermark {
		t.Fatal("an oversized zone outlived a pass over the high watermark")
	}
	r.checkAcked(r.db, "after oversized-first demotions")
}

// TestNVMeLedgerMatchesDevice: a tiered single-partition run exercising every
// background mechanism of the performance tier; with the index mirror off,
// the ledger must account for the device's background bytes exactly.
func TestNVMeLedgerMatchesDevice(t *testing.T) {
	r := newRegimeRig(t, 2<<20, regimeBatch, true)
	r.insert(30000)
	r.heat()
	st := r.db.Stats()
	bg := st.Zone.Bg
	for name, v := range map[string]uint64{
		"demotion reads": bg.DemotionRead, "rebuild reads": bg.RebuildRead, "rebuild writes": bg.RebuildWrite,
		"promotion writes": bg.PromotionWrite, "hot-evict reads": bg.HotEvictRead, "hot-evict writes": bg.HotEvictWrite,
	} {
		if v == 0 {
			t.Errorf("the run moved no %s", name)
		}
	}
	if got, want := bg.DemotionRead+bg.RebuildRead+bg.HotEvictRead, st.NVMe.BgReadBytes; got != want {
		t.Fatalf("ledger reads %d bytes, device background reads %d", got, want)
	}
	if got, want := bg.RebuildWrite+bg.PromotionWrite+bg.HotEvictWrite, st.NVMe.BgWriteBytes; got != want {
		t.Fatalf("ledger writes %d bytes, device background writes %d", got, want)
	}
	if got, want := bg.Total(), st.NVMe.BgReadBytes+st.NVMe.BgWriteBytes; got != want {
		t.Fatalf("ledger total %d, device %d", got, want)
	}
	if s := st.String(); !strings.Contains(s, "nvme background: demote{r=") || !strings.Contains(s, "other=0B") {
		t.Fatalf("stats rendering:\n%s", s)
	}
}

// TestDeviceHeldStaysAtUsed: a tiered load with demotions and hot-zone
// evictions frees slot pages all the time, and each partition's slot files
// reuse only their own, so the files come to span more than the device uses.
// A freed page must return its memory: each device holds at most what it
// uses plus one page per file, and the stats line prints both.
func TestDeviceHeldStaysAtUsed(t *testing.T) {
	r := newRegimeRig(t, 2<<20, regimeBatch, false)
	r.insert(30000)
	r.heat()
	st := r.db.Stats()
	if st.Zone.Migrations == 0 {
		t.Fatal("the run demoted nothing")
	}
	for _, d := range []*device.Device{r.nvme, r.sata} {
		var span int64
		names := d.List()
		for _, name := range names {
			f, err := d.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			span += f.Size()
		}
		slack := int64(len(names) * d.PageSize())
		if d == r.nvme && span <= d.Used()+slack {
			t.Fatalf("the NVMe files span %d bytes for %d used: no page was left free inside a file", span, d.Used())
		}
		if d.Held() > d.Used()+slack {
			t.Errorf("%s holds %d bytes for %d used in %d files (%d bytes spanned)", d.Profile().Name, d.Held(), d.Used(), len(names), span)
		}
	}
	if s := st.String(); !strings.Contains(s, "NVMe: used=") || !strings.Contains(s, " held=") {
		t.Fatalf("stats rendering:\n%s", s)
	}
}

// tieredCrashRig builds, the same way every time, a tiered partition whose
// next pass starts over the high watermark with an oversized zone to demote.
func tieredCrashRig(t *testing.T) *regimeRig {
	t.Helper()
	r := newRegimeRig(t, 512<<10, 8<<10, false)
	for i := 0; i < 60000; i++ {
		if r.write(); !r.due() {
			continue
		}
		z, _ := r.db.parts[0].zones.PickOversizedZone()
		if z != nil && r.tiered() && r.nvme.UsedFraction() >= r.db.opts.HighWatermark {
			return r
		}
		r.pass()
	}
	t.Fatal("never reached a pass over the high watermark with an oversized zone")
	return nil
}

// TestRecoverStaysTieredAndSurvivesDemotionCut: the regime is read from the
// capacity tier's tables, so a recovered store with a non-empty tree must
// not fall back to rebuilding on its first passes; and a power cut at any
// write of the pass that demotes an oversized zone must lose nothing acked.
func TestRecoverStaysTieredAndSurvivesDemotionCut(t *testing.T) {
	// Clean pass: count the step's writes on either device.
	r := tieredCrashRig(t)
	n0, s0 := r.nvme.Counters().WriteOps.Load(), r.sata.Counters().WriteOps.Load()
	victim, _ := r.db.parts[0].zones.PickOversizedZone()
	if got := r.db.parts[0].victim(); got != victim {
		t.Fatalf("the step's first victim is zone %d, not the oversized zone %d", got.ID(), victim.ID())
	}
	r.pass()
	nvmeWrites := int64(r.nvme.Counters().WriteOps.Load() - n0)
	sataWrites := int64(r.sata.Counters().WriteOps.Load() - s0)
	if sataWrites == 0 {
		t.Fatal("the step wrote nothing to the capacity tier")
	}
	t.Logf("the step makes %d SATA and %d NVMe writes", sataWrites, nvmeWrites)

	oversizedAfterRecovery := 0
	cut := func(onSATA bool, n int64) {
		r := tieredCrashRig(t)
		dev, name, writes := r.nvme, "NVMe", nvmeWrites
		if onSATA {
			dev, name, writes = r.sata, "SATA", sataWrites
		}
		when := fmt.Sprintf("%s write %d of %d", name, n, writes)
		dev.InjectFaults(device.FaultPlan{Seed: n, FailWriteAfter: n, TornWrites: n%2 == 0})
		if err := r.step(); !errors.Is(err, device.ErrInjected) && (err != nil || n <= writes) {
			t.Fatalf("%s: step returned %v", when, err)
		}
		r.db.Close()
		r.nvme.PowerCut()
		r.sata.PowerCut()
		dev.ClearFaults()
		re, err := Open(regimeOpts(r.nvme, r.sata, 8<<10, false))
		if err != nil {
			t.Fatalf("%s: recover: %v", when, err)
		}
		defer re.Close()
		r.checkAcked(re, when)
		if re.parts[0].tree.Empty() {
			t.Fatalf("%s: the recovered partition's tree is empty", when)
		}
		for i := 0; i < 3; i++ {
			if z, _ := re.parts[0].zones.PickOversizedZone(); z != nil {
				oversizedAfterRecovery++
			}
			if err := re.MigrationStep(0); err != nil {
				t.Fatalf("%s: step %d after recovery: %v", when, i, err)
			}
			if _, err := re.CompactionStep(0); err != nil {
				t.Fatalf("%s: compaction %d after recovery: %v", when, i, err)
			}
		}
		if bg := re.Stats().Zone.Bg; bg.RebuildRead != 0 || bg.RebuildWrite != 0 {
			t.Fatalf("%s: the recovered store rebuilt zones (%d read, %d written) with a non-empty tree",
				when, bg.RebuildRead, bg.RebuildWrite)
		}
		r.checkAcked(re, when+", after three passes")
	}
	// Write writes+1 never happens: the step completes and the cut follows.
	for n := int64(1); n <= sataWrites+1; n++ {
		cut(true, n)
	}
	for n := int64(1); n <= nvmeWrites; n++ {
		cut(false, n)
	}
	if oversizedAfterRecovery == 0 {
		t.Fatal("no recovered store had an oversized zone: its passes had nothing to rebuild")
	}
}

// residentCrashRig builds, the same way every time, a resident partition
// whose next pass splits an oversized zone.
func residentCrashRig(t *testing.T) *regimeRig {
	t.Helper()
	r := newRegimeRig(t, 64<<20, 8<<10, false)
	for i := 0; i < 20000; i++ {
		if r.write(); !r.due() {
			continue
		}
		if z, _ := r.db.parts[0].zones.PickOversizedZone(); z != nil && !r.tiered() {
			return r
		}
		r.pass()
	}
	t.Fatal("never reached a resident pass with an oversized zone")
	return nil
}

// TestSplitCrashAtEveryWrite cuts power at every NVMe write of a pass that
// splits a zone, tearing the write on even cuts, and once more just after
// the pass. A split writes runs of slots with one device write each and
// frees the old zone's pages only after the last: a recovered store must
// read every acked value and hold every key once — the copy of an object the
// split had written and the original are one object, not two.
func TestSplitCrashAtEveryWrite(t *testing.T) {
	r := residentCrashRig(t)
	n0, moved := r.nvme.Counters().WriteOps.Load(), r.db.Stats().Zone.Bg.RebuildWrite
	r.pass()
	writes := int64(r.nvme.Counters().WriteOps.Load() - n0)
	if r.db.Stats().Zone.Bg.RebuildWrite == moved {
		t.Fatal("the pass split nothing")
	}
	t.Logf("the split pass makes %d NVMe writes", writes)

	for n := int64(1); n <= writes+1; n++ {
		r := residentCrashRig(t)
		when := fmt.Sprintf("NVMe write %d of %d", n, writes)
		r.nvme.InjectFaults(device.FaultPlan{Seed: n, FailWriteAfter: n, TornWrites: n%2 == 0})
		if err := r.step(); !errors.Is(err, device.ErrInjected) && (err != nil || n <= writes) {
			t.Fatalf("%s: step returned %v", when, err)
		}
		r.db.Close()
		r.nvme.PowerCut()
		r.sata.PowerCut()
		r.nvme.ClearFaults()
		re, err := Open(regimeOpts(r.nvme, r.sata, 8<<10, false))
		if err != nil {
			t.Fatalf("%s: recover: %v", when, err)
		}
		r.checkAcked(re, when)
		var payload int64
		for k, v := range r.acked {
			payload += int64(19 + len(k) + len(v)) // a slot's header, key and value
		}
		if st := re.Stats().Zone; st.Objects != int64(len(r.acked)) || st.PayloadBytes != payload {
			t.Fatalf("%s: the recovered tier indexes %d objects of %d bytes; %d keys of %d bytes were acked",
				when, st.Objects, st.PayloadBytes, len(r.acked), payload)
		}
		kvs, err := re.Scan(nil, len(r.acked)+1)
		if err != nil || len(kvs) != len(r.acked) {
			t.Fatalf("%s: a full scan returned %d entries (%v) for %d acked keys", when, len(kvs), err, len(r.acked))
		}
		for i := 1; i < len(kvs); i++ {
			if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
				t.Fatalf("%s: scan returns %x after %x", when, kvs[i].Key, kvs[i-1].Key)
			}
		}
		re.Close()
	}
}
