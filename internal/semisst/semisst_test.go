package semisst

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/keys"
)

func newDev() *device.Device {
	return device.New(device.UnthrottledProfile("t", 0))
}

func entry(k string, seq uint64, v string) Entry {
	return Entry{
		Key:   keys.InternalKey{User: []byte(k), Seq: seq, Kind: keys.KindSet},
		Value: []byte(v),
	}
}

func sortedEntries(n int, seqBase uint64) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		out = append(out, entry(k, seqBase+uint64(i), "val-"+k))
	}
	return out
}

func TestBuildAndGet(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, err := Build(f, Options{}, sortedEntries(1000, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumEntries() != 1000 {
		t.Fatalf("entries = %d", tbl.NumEntries())
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, kind, found, err := tbl.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found || kind != keys.KindSet || string(v) != "val-"+k {
			t.Fatalf("get %s: %q %v %v %v", k, v, kind, found, err)
		}
	}
	if _, _, found, _ := tbl.Get([]byte("absent"), keys.MaxSeq, device.Fg); found {
		t.Fatal("phantom")
	}
}

func TestBlocksDisjointAndSorted(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(2000, 1), device.Bg)
	metas := tbl.LiveBlockMetas()
	if len(metas) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(metas))
	}
	for i := 1; i < len(metas); i++ {
		if bytes.Compare(metas[i-1].Last, metas[i].First) >= 0 {
			t.Fatalf("blocks %d/%d overlap: %q vs %q", i-1, i, metas[i-1].Last, metas[i].First)
		}
	}
}

func TestMergeDirtiesOnlyOverlappingBlocks(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(2000, 1), device.Bg)
	blocksBefore := tbl.NumLiveBlocks()

	// Update a narrow range of keys: only the covering blocks go dirty.
	incoming := []Entry{
		entry("key-00500", 9001, "NEW-500"),
		entry("key-00501", 9002, "NEW-501"),
	}
	st, err := tbl.Merge(incoming, false, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksDirtied == 0 || st.BlocksDirtied > 2 {
		t.Fatalf("dirtied %d blocks for a 2-key update", st.BlocksDirtied)
	}
	if tbl.StaleBytes() == 0 {
		t.Fatal("no stale bytes after merge")
	}
	if got := tbl.NumLiveBlocks(); got < blocksBefore-2 || got > blocksBefore+1 {
		t.Fatalf("live blocks %d -> %d", blocksBefore, got)
	}
	// All data still correct, updated keys serve new values.
	v, _, found, _ := tbl.Get([]byte("key-00500"), keys.MaxSeq, device.Fg)
	if !found || string(v) != "NEW-500" {
		t.Fatalf("updated key: %q %v", v, found)
	}
	v, _, found, _ = tbl.Get([]byte("key-00499"), keys.MaxSeq, device.Fg)
	if !found || string(v) != "val-key-00499" {
		t.Fatalf("survivor from dirty block: %q %v", v, found)
	}
	v, _, found, _ = tbl.Get([]byte("key-01500"), keys.MaxSeq, device.Fg)
	if !found || string(v) != "val-key-01500" {
		t.Fatalf("clean-block key: %q %v", v, found)
	}
	if tbl.NumEntries() != 2000 {
		t.Fatalf("entries after merge = %d", tbl.NumEntries())
	}
}

func TestMergeNonOverlappingAppends(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(100, 1), device.Bg)
	// Keys entirely after the existing range: nothing dirties.
	var incoming []Entry
	for i := 0; i < 50; i++ {
		incoming = append(incoming, entry(fmt.Sprintf("zzz-%03d", i), uint64(1000+i), "z"))
	}
	st, err := tbl.Merge(incoming, false, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksDirtied != 0 {
		t.Fatalf("non-overlapping merge dirtied %d blocks", st.BlocksDirtied)
	}
	if tbl.NumEntries() != 150 {
		t.Fatalf("entries = %d", tbl.NumEntries())
	}
	if tbl.StaleBytes() != 0 {
		t.Fatal("stale bytes on clean append")
	}
}

func TestTombstonesDropAtBottom(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(100, 1), device.Bg)
	del := Entry{Key: keys.InternalKey{User: []byte("key-00050"), Seq: 999, Kind: keys.KindDelete}}
	if _, err := tbl.Merge([]Entry{del}, true, device.Bg); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := tbl.Get([]byte("key-00050"), keys.MaxSeq, device.Fg); found {
		t.Fatal("bottom-level merge should drop key entirely")
	}
	if tbl.NumEntries() != 99 {
		t.Fatalf("entries = %d", tbl.NumEntries())
	}
}

func TestTombstonesKeptAtMiddle(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(100, 1), device.Bg)
	del := Entry{Key: keys.InternalKey{User: []byte("key-00050"), Seq: 999, Kind: keys.KindDelete}}
	if _, err := tbl.Merge([]Entry{del}, false, device.Bg); err != nil {
		t.Fatal(err)
	}
	_, kind, found, _ := tbl.Get([]byte("key-00050"), keys.MaxSeq, device.Fg)
	if !found || kind != keys.KindDelete {
		t.Fatalf("mid-level merge must keep tombstone: %v %v", kind, found)
	}
}

// TestDirtyRatioAfterOverwrite overwrites every key in place, which leaves
// the old blocks as dead space, and checks that the table's live entries
// rebuilt as a new file — the full-compaction path — carry none of it.
func TestDirtyRatioAfterOverwrite(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(1000, 1), device.Bg)
	updates := make([]Entry, 0, 1000)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		updates = append(updates, entry(k, uint64(5000+i), "u-"+k))
	}
	if got, want := tbl.DirtyRatioAfterMerge(updates, false), 0.5; got < want {
		t.Fatalf("predicted dirty ratio %f for a full overwrite, want >= %f", got, want)
	}
	if _, err := tbl.Merge(updates, false, device.Bg); err != nil {
		t.Fatal(err)
	}
	if r := tbl.DirtyRatio(); r < 0.4 {
		t.Fatalf("dirty ratio = %f after full overwrite", r)
	}
	live, _, err := tbl.AllEntries(device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := dev.Create("s2")
	next, err := Build(f2, Options{}, live, device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if next.DirtyRatio() != 0 || next.StaleBytes() != 0 {
		t.Fatal("rebuilt generation carries stale data")
	}
	if next.FileBytes() >= tbl.FileBytes() {
		t.Fatalf("rebuild did not shrink the file: %d -> %d", tbl.FileBytes(), next.FileBytes())
	}
	for i := 0; i < 1000; i += 111 {
		k := fmt.Sprintf("key-%05d", i)
		v, _, found, _ := next.Get([]byte(k), keys.MaxSeq, device.Fg)
		if !found || string(v) != "u-"+k {
			t.Fatalf("after rebuild %s: %q %v", k, v, found)
		}
	}
}

func TestExtractOverlapping(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(1000, 1), device.Bg)
	span := keys.Range{Lo: []byte("key-00300"), Hi: []byte("key-00400")}
	var extracted []Entry
	keep := func(es []Entry) error { extracted = es; return nil }
	// A failed move must leave the table exactly as it was: the deeper
	// level does not hold the entries, so the blocks may not be dirtied.
	moveErr := errors.New("deeper level failed")
	if _, err := tbl.ExtractOverlapping([]keys.Range{span}, device.Bg, func([]Entry) error { return moveErr }); err != moveErr {
		t.Fatalf("failed move: err = %v", err)
	}
	if tbl.StaleBytes() != 0 || tbl.NumEntries() != 1000 {
		t.Fatalf("failed move changed the table: stale=%d entries=%d", tbl.StaleBytes(), tbl.NumEntries())
	}
	st, err := tbl.ExtractOverlapping([]keys.Range{span}, device.Bg, keep)
	if err != nil {
		t.Fatal(err)
	}
	if len(extracted) == 0 || st.BlocksDirtied == 0 {
		t.Fatalf("extracted %d entries, %d blocks", len(extracted), st.BlocksDirtied)
	}
	if !sort.SliceIsSorted(extracted, func(a, b int) bool {
		return bytes.Compare(extracted[a].Key.User, extracted[b].Key.User) < 0
	}) {
		t.Fatal("extracted entries out of order")
	}
	// Every key in the span must now be gone from the table.
	for _, e := range extracted {
		if span.Contains(e.Key.User) {
			if _, _, found, _ := tbl.Get(e.Key.User, keys.MaxSeq, device.Fg); found {
				t.Fatalf("extracted key %q still readable", e.Key.User)
			}
		}
	}
	// Idempotent when nothing overlaps.
	extracted = nil
	st2, err := tbl.ExtractOverlapping([]keys.Range{span}, device.Bg, keep)
	if err != nil || len(extracted) != 0 || st2.BlocksDirtied != 0 {
		t.Fatalf("second extract: %d entries, %d blocks, err=%v", len(extracted), st2.BlocksDirtied, err)
	}
}

func TestOpenReload(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(500, 1), device.Bg)
	tbl.Merge([]Entry{entry("key-00100", 9000, "updated")}, false, device.Bg)

	re, err := Open(f, Options{}, device.Fg)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumEntries() != tbl.NumEntries() {
		t.Fatalf("reloaded entries %d != %d", re.NumEntries(), tbl.NumEntries())
	}
	if re.StaleBytes() != tbl.StaleBytes() {
		t.Fatalf("reloaded stale %d != %d", re.StaleBytes(), tbl.StaleBytes())
	}
	v, _, found, _ := re.Get([]byte("key-00100"), keys.MaxSeq, device.Fg)
	if !found || string(v) != "updated" {
		t.Fatalf("reloaded get: %q %v", v, found)
	}
	if re.MaxSeq() != 9000 {
		t.Fatalf("maxSeq = %d", re.MaxSeq())
	}
}

func TestIterSortedAndSeek(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(800, 1), device.Bg)
	// Appended blocks keep global iteration order because live blocks stay
	// disjoint.
	tbl.Merge([]Entry{entry("key-00400", 9000, "mid-update")}, false, device.Bg)

	it := tbl.NewIter(device.Fg)
	n := 0
	prev := ""
	for it.First(); it.Valid(); it.Next() {
		k := string(it.Key().User)
		if k <= prev {
			t.Fatalf("iteration out of order: %q after %q", k, prev)
		}
		prev = k
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 800 {
		t.Fatalf("iterated %d", n)
	}
	it.SeekGE([]byte("key-00400"))
	if !it.Valid() || string(it.Key().User) != "key-00400" || string(it.Value()) != "mid-update" {
		t.Fatalf("seek after merge: %q=%q", it.Key().User, it.Value())
	}
}

func TestMetaBackupMirror(t *testing.T) {
	sata := newDev()
	nvme := device.New(device.UnthrottledProfile("nvme", 0))
	f, _ := sata.Create("s1")
	tbl, err := Build(f, Options{MetaBackup: nvme}, sortedEntries(300, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if nvme.Counters().WriteBytes.Load() == 0 {
		t.Fatal("mirror got no writes")
	}
	sataReadsBefore := sata.Counters().ReadBytes.Load()
	nvmeReadsBefore := nvme.Counters().ReadBytes.Load()
	tbl.ChargeIndexRead(device.Bg)
	if sata.Counters().ReadBytes.Load() != sataReadsBefore {
		t.Fatal("index read charged to SATA despite mirror")
	}
	if nvme.Counters().ReadBytes.Load() == nvmeReadsBefore {
		t.Fatal("index read not charged to NVMe mirror")
	}
	tbl.Close()
	if len(nvme.List()) != 0 {
		t.Fatalf("mirror file leaked: %v", nvme.List())
	}
}

func TestMergeSortedHelper(t *testing.T) {
	old := []Entry{entry("a", 1, "a1"), entry("c", 1, "c1")}
	new_ := []Entry{entry("b", 2, "b2"), entry("c", 2, "c2")}
	got := MergeSorted(old, new_, false)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if string(got[2].Value) != "c2" {
		t.Fatalf("collision kept old value %q", got[2].Value)
	}
	// Tombstone dropping.
	del := []Entry{{Key: keys.InternalKey{User: []byte("a"), Seq: 5, Kind: keys.KindDelete}}}
	got = MergeSorted(old, del, true)
	for _, e := range got {
		if string(e.Key.User) == "a" {
			t.Fatal("tombstone survived dropTombstones")
		}
	}
}

func TestRandomizedMergeModel(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	ref := map[string]string{}
	base := sortedEntries(500, 1)
	for _, e := range base {
		ref[string(e.Key.User)] = string(e.Value)
	}
	tbl, _ := Build(f, Options{}, base, device.Bg)
	rng := rand.New(rand.NewSource(21))
	seq := uint64(1000)
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(50)
		batch := map[string]string{}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%05d", rng.Intn(700)) // some new, some old
			seq++
			batch[k] = fmt.Sprintf("r%d-%d", round, i)
		}
		var ks []string
		for k := range batch {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		var entries []Entry
		for _, k := range ks {
			entries = append(entries, entry(k, seq, batch[k]))
			ref[k] = batch[k]
		}
		if _, err := tbl.Merge(entries, false, device.Bg); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for k, want := range ref {
		v, _, found, err := tbl.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found || string(v) != want {
			t.Fatalf("%s: got %q want %q (found=%v err=%v)", k, v, want, found, err)
		}
	}
	if tbl.NumEntries() != len(ref) {
		t.Fatalf("entries = %d, ref = %d", tbl.NumEntries(), len(ref))
	}
}

// TestIterSnapshotAcrossMerge merges into the table mid-scan. Merges only
// append, so the iterator keeps walking the block snapshot it took at
// NewIter: every pre-merge key exactly once, in order, old values.
func TestIterSnapshotAcrossMerge(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(1000, 1), device.Bg)

	it := tbl.NewIter(device.Fg)
	it.First()
	seen := 0
	var prev []byte
	for ; it.Valid(); it.Next() {
		seen++
		if prev != nil && bytes.Compare(prev, it.Key().User) >= 0 {
			t.Fatalf("order violated after %d entries", seen)
		}
		prev = append(prev[:0], it.Key().User...)
		if want := "val-" + string(prev); string(it.Value()) != want {
			t.Fatalf("%s = %q, want the snapshot's %q", prev, it.Value(), want)
		}
		if seen == 300 {
			// Dirty every block, the ones already passed and the ones ahead.
			var updates []Entry
			for i := 0; i < 1000; i += 7 {
				updates = append(updates, entry(fmt.Sprintf("key-%05d", i), uint64(5000+i), "x"))
			}
			if _, err := tbl.Merge(updates, false, device.Bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if seen != 1000 {
		t.Fatalf("saw %d entries across a merge, want 1000", seen)
	}
}

// TestNewIterSharesTheLiveSnapshot pins that a table snapshot is a pointer,
// not a copy: NewIter allocates nothing whatever the block count, every
// iterator between two merges walks the same published slice, and a merge
// publishes a new slice instead of touching the one iterators hold.
func TestNewIterSharesTheLiveSnapshot(t *testing.T) {
	dev := newDev()
	for _, n := range []int{20, 20000} {
		f, _ := dev.Create(fmt.Sprintf("s%d", n))
		tbl, err := Build(f, Options{}, sortedEntries(n, 1), device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		var it Iter
		if allocs := testing.AllocsPerRun(100, func() { it = tbl.NewIter(device.Fg) }); allocs != 0 {
			t.Fatalf("NewIter over %d blocks allocates %v times", tbl.NumLiveBlocks(), allocs)
		}
		held := tbl.LiveBlockMetas()
		if &it.metas[0] != &held[0] {
			t.Fatal("NewIter copied the block metadata")
		}
		before := append([]BlockMeta(nil), held...)
		if _, err := tbl.Merge([]Entry{entry("key-00003", 90000, "x")}, false, device.Bg); err != nil {
			t.Fatal(err)
		}
		if now := tbl.LiveBlockMetas(); &now[0] == &held[0] {
			t.Fatal("the merge reused the published snapshot")
		}
		for i := range held {
			if held[i].Handle != before[i].Handle || !held[i].Valid || held[i].Filter == nil || held[i].Sum != before[i].Sum {
				t.Fatalf("the merge wrote into the snapshot an iterator holds, block %d", i)
			}
		}
	}
}

// TestGetConcurrentWithMerge runs lock-free point reads against a table
// while merges dirty and append blocks under them: a read returns a value
// some merge wrote, never an error or bytes from a half-written block.
func TestGetConcurrentWithMerge(t *testing.T) {
	dev := newDev()
	f, _ := dev.Create("s1")
	tbl, _ := Build(f, Options{}, sortedEntries(2000, 1), device.Bg)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			k := fmt.Sprintf("key-%05d", i%2000)
			v, _, found, err := tbl.Get([]byte(k), keys.MaxSeq, device.Fg)
			if err != nil {
				done <- fmt.Errorf("get %s: %w", k, err)
				return
			}
			if !found {
				done <- fmt.Errorf("get %s: missing", k)
				return
			}
			if !bytes.HasPrefix(v, []byte("val-")) && !bytes.HasPrefix(v, []byte("re-")) {
				done <- fmt.Errorf("get %s returned garbage %q", k, v)
				return
			}
		}
	}()
	for round := 0; round < 60; round++ {
		if _, err := tbl.Merge([]Entry{entry(fmt.Sprintf("key-%05d", round*37%2000), uint64(10000+round), fmt.Sprintf("re-%d", round))}, false, device.Bg); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fileImage returns every byte of f.
func fileImage(tb testing.TB, f *device.File) []byte {
	img := make([]byte, f.Size())
	if _, err := f.ReadAt(img, 0, device.Fg); err != nil {
		tb.Fatal(err)
	}
	return img
}

// openImage stores img as a fresh file and opens it.
func openImage(tb testing.TB, img []byte) (*Table, error) {
	f, _ := newDev().Create("img.sst")
	if _, err := f.Append(img); err != nil {
		tb.Fatal(err)
	}
	if err := f.Sync(device.Bg); err != nil {
		tb.Fatal(err)
	}
	return Open(f, Options{}, device.Bg)
}

// TestIndexBitFlipFailsClosed flips every byte of a merged table's newest
// index and footer in turn. Open may fall back to the pre-merge footer,
// open the post-merge table, or refuse; it may never produce a third
// table, nor one whose filters hide a key its blocks hold.
func TestIndexBitFlipFailsClosed(t *testing.T) {
	f, _ := newDev().Create("s1")
	tbl, err := Build(f, Options{BlockSize: 256}, sortedEntries(60, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	pre, _, _ := tbl.AllEntries(device.Bg)
	if _, err := tbl.Merge([]Entry{entry("key-00007", 500, "merged"), entry("key-00031", 501, "merged")}, false, device.Bg); err != nil {
		t.Fatal(err)
	}
	post, _, _ := tbl.AllEntries(device.Bg)
	img := fileImage(t, f)
	tail := int(tbl.idxBytes) + footerSize
	for off := len(img) - tail; off < len(img); off++ {
		for _, mask := range []byte{0x01, 0xff} {
			img[off] ^= mask
			got, err := openImage(t, img)
			img[off] ^= mask
			if err != nil {
				continue
			}
			where := fmt.Sprintf("byte %d of the %d-byte tail ^ %#x", off-(len(img)-tail), tail, mask)
			run, _, err := got.AllEntries(device.Bg)
			if err != nil || !reflect.DeepEqual(run, pre) && !reflect.DeepEqual(run, post) {
				t.Fatalf("%s: opened a table of %d entries (err=%v) that is neither the pre-merge nor the post-merge one", where, len(run), err)
			}
			for _, e := range run {
				if v, _, found, err := got.Get(e.Key.User, keys.MaxSeq, device.Fg); err != nil || !found || !bytes.Equal(v, e.Value) {
					t.Fatalf("%s: get %q = %q found=%v err=%v, the table holds %q", where, e.Key.User, v, found, err, e.Value)
				}
			}
		}
	}
}

// TestIndexBytesPerBlock pins the index diet: a segment per block, no key
// list, so small objects do not pay per-key index bytes on every merge.
func TestIndexBytesPerBlock(t *testing.T) {
	f, _ := newDev().Create("s1")
	tbl, err := Build(f, Options{}, benchEntries(0, 15_000, 1, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	if per := tbl.idxBytes / int64(tbl.NumLiveBlocks()); per > 128 {
		t.Fatalf("index is %d bytes for %d blocks: %d per block, want <= 128", tbl.idxBytes, tbl.NumLiveBlocks(), per)
	}
}

// keySetCache is a BlockCache that never evicts, so what it still holds is
// exactly what nobody deleted.
type keySetCache map[string][]byte

func (c keySetCache) Get(key string) ([]byte, bool) { v, ok := c[key]; return v, ok }
func (c keySetCache) Put(key string, value []byte)  { c[key] = value }
func (c keySetCache) Delete(key string)             { delete(c, key) }

// TestDeadBlocksLeaveTheCache: a block nobody can ask for again — dirtied by a
// merge, or part of a deleted table — does not wait in the shared cache to be
// pushed out by live ones.
func TestDeadBlocksLeaveTheCache(t *testing.T) {
	pc := keySetCache{}
	f, _ := newDev().Create("s1")
	tbl, err := Build(f, Options{PageCache: pc}, sortedEntries(3000, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	before := tbl.LiveBlockMetas()
	for i := range before {
		if _, err := tbl.readBlockData(&before[i], device.Fg, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(pc) != len(before) || len(before) < 9 {
		t.Fatalf("%d blocks cached of %d read", len(pc), len(before))
	}

	// Rewrite the middle third of the key range.
	var incoming []Entry
	for i := 1000; i < 2000; i++ {
		incoming = append(incoming, entry(fmt.Sprintf("key-%05d", i), 5000+uint64(i), "new"))
	}
	st, err := tbl.Merge(incoming, false, device.Bg)
	if err != nil || st.BlocksDirtied < len(before)/3 {
		t.Fatalf("merge dirtied %d of %d blocks: %v", st.BlocksDirtied, len(before), err)
	}
	live := map[string]bool{}
	for _, bm := range tbl.LiveBlockMetas() {
		live[tbl.cacheKey(&bm)] = true
	}
	for key := range pc {
		if !live[key] {
			t.Fatalf("block %q was dirtied by the merge and is still cached", key)
		}
	}
	if want := len(before) - st.BlocksDirtied; len(pc) != want {
		t.Fatalf("%d blocks cached after the merge, want the %d clean ones", len(pc), want)
	}

	after := tbl.LiveBlockMetas()
	for i := range after { // the merged blocks are read, then the table is deleted
		if _, err := tbl.readBlockData(&after[i], device.Fg, nil); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Close()
	if len(pc) != 0 {
		t.Fatalf("%d blocks of a closed table are still cached", len(pc))
	}
}

// TestGetEntryValuesOutliveBufferReuse: GetEntry decodes an LZ block into a
// pooled buffer that later reads decode other blocks into; the values it
// handed out are copies, so they survive every later read.
func TestGetEntryValuesOutliveBufferReuse(t *testing.T) {
	f, _ := newDev().Create("s1")
	tbl, err := Build(f, Options{Codec: compress.LZ}, sortedEntries(1000, 1), device.Bg)
	if err != nil {
		t.Fatal(err)
	}
	var kept, want [][]byte
	for i := 0; i < 1000; i += 7 {
		k := fmt.Sprintf("key-%05d", i)
		v, _, found, err := tbl.Get([]byte(k), keys.MaxSeq, device.Fg)
		if err != nil || !found {
			t.Fatalf("get %s: %v %v", k, found, err)
		}
		kept, want = append(kept, v), append(want, []byte("val-"+k))
	}
	for i := 999; i >= 0; i-- { // every block again, decoded over the same buffers
		if _, _, _, err := tbl.Get([]byte(fmt.Sprintf("key-%05d", i)), keys.MaxSeq, device.Fg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range kept {
		if !bytes.Equal(kept[i], want[i]) {
			t.Fatalf("value %d changed from %q to %q", i, want[i], kept[i])
		}
	}
}

// TestGetEntryDecodesWithoutAllocating: a read from an LZ table allocates no
// more than one from a raw table — the block decodes into a pooled buffer —
// counted over many reads and divided in floating point.
func TestGetEntryDecodesWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	perGet := map[compress.Codec]float64{}
	for _, codec := range []compress.Codec{compress.None, compress.LZ} {
		f, _ := newDev().Create("s1")
		tbl, err := Build(f, Options{Codec: codec}, sortedEntries(1000, 1), device.Bg)
		if err != nil {
			t.Fatal(err)
		}
		ks := make([][]byte, 1000)
		for i := range ks {
			ks[i] = []byte(fmt.Sprintf("key-%05d", i*7919%1000))
		}
		read := func() {
			for _, k := range ks {
				if _, _, found, err := tbl.Get(k, keys.MaxSeq, device.Fg); err != nil || !found {
					t.Fatalf("get %s: %v %v", k, found, err)
				}
			}
		}
		read() // warm the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		perGet[codec] = float64(after.Mallocs-before.Mallocs) / float64(len(ks))
	}
	t.Logf("allocations per Get: %.3f raw, %.3f LZ", perGet[compress.None], perGet[compress.LZ])
	if d := perGet[compress.LZ] - perGet[compress.None]; d >= 0.05 {
		t.Fatalf("a Get from an LZ table allocates %.3f more than from a raw one; want < 0.05", d)
	}
}
