package device

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func unthrottled(capacity int64) *Device {
	return New(UnthrottledProfile("test", capacity))
}

func TestFileAppendReadRoundtrip(t *testing.T) {
	d := unthrottled(0)
	f, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, device layer")
	off, err := f.Append(data)
	if err != nil || off != 0 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	if err := f.Sync(Fg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	n, err := f.ReadAt(buf, 0, Fg)
	if err != nil || n != len(data) || !bytes.Equal(buf, data) {
		t.Fatalf("read: n=%d err=%v data=%q", n, err, buf)
	}
}

func TestReadChargesWholePages(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	f.Append(make([]byte, 10000))
	f.Sync(Fg)
	before := d.Counters().Snapshot()
	one := make([]byte, 1)
	f.ReadAt(one, 5000, Fg) // 1 byte in the middle of page 1
	delta := d.Counters().Snapshot().Sub(before)
	if delta.ReadBytes != 4096 {
		t.Fatalf("1-byte read charged %d bytes, want 4096 (page granularity)", delta.ReadBytes)
	}
	before = d.Counters().Snapshot()
	span := make([]byte, 4097) // crosses a page boundary
	f.ReadAt(span, 0, Fg)
	delta = d.Counters().Snapshot().Sub(before)
	if delta.ReadBytes != 8192 {
		t.Fatalf("page-crossing read charged %d, want 8192", delta.ReadBytes)
	}
}

func TestWriteChargesSectors(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	before := d.Counters().Snapshot()
	f.WriteAt(make([]byte, 100), 0, Fg)
	delta := d.Counters().Snapshot().Sub(before)
	if delta.WriteBytes != 512 {
		t.Fatalf("100-byte write charged %d, want 512 (sector granularity)", delta.WriteBytes)
	}
	before = d.Counters().Snapshot()
	f.WriteAt(make([]byte, 1024), 8192, Fg)
	delta = d.Counters().Snapshot().Sub(before)
	if delta.WriteBytes != 1024 {
		t.Fatalf("1KiB write charged %d, want 1024", delta.WriteBytes)
	}
}

func TestSyncCoalescesAppends(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	before := d.Counters().Snapshot()
	for i := 0; i < 10; i++ {
		f.Append(make([]byte, 100))
	}
	f.Sync(Fg)
	delta := d.Counters().Snapshot().Sub(before)
	if delta.WriteOps != 1 {
		t.Fatalf("10 appends + 1 sync = %d write ops, want 1 (group commit)", delta.WriteOps)
	}
	if delta.WriteBytes != 1024 { // 1000 bytes sector-rounded
		t.Fatalf("sync charged %d bytes, want 1024", delta.WriteBytes)
	}
	// A clean sync charges nothing.
	before = d.Counters().Snapshot()
	f.Sync(Fg)
	if d.Counters().Snapshot().Sub(before).WriteBytes != 0 {
		t.Fatal("clean sync should be free")
	}
}

func TestBackgroundAttribution(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	f.WriteAt(make([]byte, 512), 0, Bg)
	f.WriteAt(make([]byte, 512), 4096, Fg)
	s := d.Counters().Snapshot()
	if s.BgWriteBytes != 512 || s.WriteBytes != 1024 {
		t.Fatalf("bg=%d total=%d; want 512/1024", s.BgWriteBytes, s.WriteBytes)
	}
}

func TestCapacityEnforced(t *testing.T) {
	d := unthrottled(8192) // two pages
	f, _ := d.Create("a")
	if err := f.WriteAt(make([]byte, 8192), 0, Fg); err != nil {
		t.Fatalf("within capacity: %v", err)
	}
	if err := f.WriteAt(make([]byte, 1), 8192, Fg); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if d.Used() != 8192 {
		t.Fatalf("used = %d", d.Used())
	}
	if d.UsedFraction() != 1.0 {
		t.Fatalf("used fraction = %f", d.UsedFraction())
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	d := unthrottled(8192)
	f, _ := d.Create("a")
	f.WriteAt(make([]byte, 8192), 0, Fg)
	if err := d.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatalf("used after remove = %d", d.Used())
	}
	if _, err := f.ReadAt(make([]byte, 1), 0, Fg); !errors.Is(err, ErrClosed) {
		t.Fatalf("read of removed file: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	f.Append(make([]byte, 10000))
	f.Sync(Fg)
	used := d.Used()
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4096 {
		t.Fatalf("size = %d", f.Size())
	}
	if d.Used() >= used {
		t.Fatal("truncate did not free pages")
	}
	if err := f.Truncate(99999); err == nil {
		t.Fatal("growing truncate should fail")
	}
}

func TestHolePunchAndReallocate(t *testing.T) {
	d := unthrottled(16 * 4096)
	f, _ := d.Create("a")
	f.EnsureAllocated(8 * 4096)
	// One non-zero byte in each page: each page stores the one granule.
	model := make([]byte, 8*4096)
	for p := int64(0); p < 8; p++ {
		model[p*4096+100] = byte(1 + p)
		f.WriteAt(model[p*4096+100:p*4096+101], p*4096+100, Fg)
	}
	if want := nonZeroGranules(model) * 32; d.Held() != want || want != 8*32 {
		t.Fatalf("the device holds %d bytes, want %d for 8 non-zero granules", d.Held(), want)
	}
	used := d.Used()
	f.PunchHole(3)
	f.PunchHole(3) // idempotent
	if d.Used() != used-4096 {
		t.Fatalf("punch freed %d, want 4096", used-d.Used())
	}
	if f.AllocatedBytes() != 7*4096 {
		t.Fatalf("allocated = %d", f.AllocatedBytes())
	}
	clear(model[3*4096 : 4*4096])
	if want := nonZeroGranules(model) * 32; d.Held() != want {
		t.Fatalf("after a punch the device holds %d bytes, want the %d the 7 pages left store", d.Held(), want)
	}
	// Data still readable after punch (TRIM semantics until reuse).
	if _, err := f.ReadAt(make([]byte, 10), 3*4096, Fg); err != nil {
		t.Fatal(err)
	}
	if err := f.Reallocate(3); err != nil {
		t.Fatal(err)
	}
	if d.Used() != used {
		t.Fatalf("reallocate restored %d, want %d", d.Used(), used)
	}
	if want := nonZeroGranules(model) * 32; d.Held() != want {
		t.Fatalf("a reallocated page reads zeros but the device holds %d bytes, want %d", d.Held(), want)
	}
	// Reallocate of a never-punched page is a no-op.
	if err := f.Reallocate(0); err != nil {
		t.Fatal(err)
	}
	if d.Used() != used {
		t.Fatal("no-op reallocate changed usage")
	}
}

func TestReallocateFailsWhenFull(t *testing.T) {
	d := unthrottled(2 * 4096)
	f, _ := d.Create("a")
	f.EnsureAllocated(2 * 4096)
	f.PunchHole(0)
	// Fill the freed page from another file.
	g, _ := d.Create("b")
	if err := g.EnsureAllocated(4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Reallocate(0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
}

func TestTruncatePastHoles(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	f.EnsureAllocated(8 * 4096)
	f.PunchHole(6)
	f.PunchHole(7)
	used := d.Used()
	if err := f.Truncate(4 * 4096); err != nil {
		t.Fatal(err)
	}
	// Pages 4,5 freed now; 6,7 were already free — no double count.
	if got := used - d.Used(); got != 2*4096 {
		t.Fatalf("truncate freed %d, want %d", got, 2*4096)
	}
}

func TestCreateDuplicateAndOpen(t *testing.T) {
	d := unthrottled(0)
	if _, err := d.Create("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("x"); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if _, err := d.Open("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("missing"); err == nil {
		t.Fatal("open of missing file should fail")
	}
	names := d.List()
	if len(names) != 1 || names[0] != "x" {
		t.Fatalf("list = %v", names)
	}
}

func TestThrottledLatency(t *testing.T) {
	p := Profile{
		Name: "slow", PageSize: 4096, Channels: 1,
		ReadLatency: 2 * time.Millisecond,
	}
	d := New(p)
	f, _ := d.Create("a")
	f.Append(make([]byte, 4096))
	f.Sync(Fg)
	start := time.Now()
	f.ReadAt(make([]byte, 100), 0, Fg)
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("read returned in %v, want >= 2ms", el)
	}
}

func TestThrottledQueueing(t *testing.T) {
	// One channel, 2ms per read: 4 concurrent reads take >= ~8ms total.
	p := Profile{Name: "q", PageSize: 4096, Channels: 1, ReadLatency: 2 * time.Millisecond}
	d := New(p)
	f, _ := d.Create("a")
	f.Append(make([]byte, 4096))
	f.Sync(Fg)
	start := time.Now()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			f.ReadAt(make([]byte, 10), 0, Fg)
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if el := time.Since(start); el < 7*time.Millisecond {
		t.Fatalf("4 serialized reads took %v, want >= ~8ms", el)
	}
	if u := d.Utilization(); u <= 0 {
		t.Fatalf("utilization = %f", u)
	}
}

func TestSequentialDiscount(t *testing.T) {
	p := Profile{
		Name: "seq", PageSize: 4096, Channels: 1,
		ReadLatency: 4 * time.Millisecond, SeqDiscount: 8,
	}
	d := New(p)
	f, _ := d.Create("a")
	f.Append(make([]byte, 8*4096))
	f.Sync(Fg)

	// The modelled service time is exact; wall time only bounds it from
	// below, since a sleep can overrun but never undershoot.
	booked := func(read func()) time.Duration {
		before, _, _ := d.throttle.busyTime()
		read()
		after, _, _ := d.throttle.busyTime()
		return after - before
	}
	if seq := booked(func() { f.ReadAt(make([]byte, 8*4096), 0, FgSeq) }); seq != 4*time.Millisecond/8 {
		t.Fatalf("sequential 8-page read booked %v, want 500µs (one command at 1/8 latency)", seq)
	}
	start := time.Now()
	if random := booked(func() { f.ReadAt(make([]byte, 2*4096), 0, Fg) }); random != 8*time.Millisecond {
		t.Fatalf("random 2-page read booked %v, want 8ms (2 commands x 4ms)", random)
	}
	if wall := time.Since(start); wall < 8*time.Millisecond {
		t.Fatalf("random 2-page read returned after %v, before its 8ms service time", wall)
	}
}

func TestConcurrentFileAccess(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	f.EnsureAllocated(64 * 4096)
	var wg = make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				page := int64(rng.Intn(64))
				if rng.Intn(2) == 0 {
					f.WriteAt([]byte{byte(seed)}, page*4096, Fg)
				} else {
					f.ReadAt(make([]byte, 64), page*4096, Fg)
				}
			}
			wg <- struct{}{}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-wg
	}
}

func TestAllocatedPageIDs(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	f.EnsureAllocated(5 * 4096)
	f.PunchHole(1)
	f.PunchHole(3)
	got := f.AllocatedPageIDs()
	want := []int64{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("pages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pages = %v, want %v", got, want)
		}
	}
	// Punched pages read back zeroed (deterministic TRIM), and a write into
	// a punched page implicitly reallocates it on the ledger.
	used := d.Used()
	if err := f.WriteAt([]byte{0xAA}, 1*4096+7, Fg); err != nil {
		t.Fatal(err)
	}
	if d.Used() != used+4096 {
		t.Fatalf("write into hole did not reallocate: used %d -> %d", used, d.Used())
	}
	f.PunchHole(1)
	buf := make([]byte, 16)
	f.ReadAt(buf, 1*4096, Fg)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("punched page not zeroed")
		}
	}
}

func TestEnsureAllocatedChargesNothing(t *testing.T) {
	d := unthrottled(0)
	f, _ := d.Create("a")
	before := d.Counters().Snapshot()
	if err := f.EnsureAllocated(64 * 4096); err != nil {
		t.Fatal(err)
	}
	delta := d.Counters().Snapshot().Sub(before)
	if delta.WriteBytes != 0 || delta.ReadBytes != 0 {
		t.Fatalf("allocation charged I/O: %+v", delta)
	}
	if d.Used() != 64*4096 {
		t.Fatalf("used = %d", d.Used())
	}
}

// TestFileMatchesFlatModel drives a file through random appends, in-place
// writes, zero extensions, truncations and hole punches whose sizes straddle
// many of the pages the contents are stored in, and checks every read
// against a flat byte slice, the memory the file holds against the model's
// non-zero 32-byte granules, and the ledger and its allocated pages against
// the model's set of punched pages.
func TestFileMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		d := unthrottled(0)
		f, _ := d.Create("a")
		var model []byte
		punched := map[int]bool{} // pages punched and not written since
		unpunch := func(off, n int) {
			for p := off / 4096; n > 0 && p <= (off+n-1)/4096; p++ {
				delete(punched, p)
			}
		}
		random := func(n int) []byte {
			p := make([]byte, n)
			rng.Read(p)
			return p
		}
		size := func() int { // mostly small, sometimes dozens of pages
			if rng.Intn(4) == 0 {
				return rng.Intn(3 * 64 << 10)
			}
			return rng.Intn(6000)
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(7) {
			case 0, 1:
				p := random(size())
				off, err := f.Append(p)
				if err != nil || off != int64(len(model)) {
					t.Fatalf("append at %d: off %d, %v", len(model), off, err)
				}
				unpunch(len(model), len(p))
				model = append(model, p...)
			case 2: // may leave a zero gap and extend the file
				p := random(size())
				off := rng.Intn(len(model) + 5000)
				if err := f.WriteAt(p, int64(off), Fg); err != nil {
					t.Fatal(err)
				}
				unpunch(off, len(p))
				if end := off + len(p); end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], p)
			case 3:
				n := len(model) + size()
				if err := f.EnsureAllocated(int64(n)); err != nil {
					t.Fatal(err)
				}
				model = append(model, make([]byte, n-len(model))...)
			case 4:
				n := rng.Intn(len(model) + 1)
				if err := f.Truncate(int64(n)); err != nil {
					t.Fatal(err)
				}
				model = model[:n:n] // what follows must read back as zeros once regrown
				for p := range punched {
					if p >= (n+4095)/4096 {
						delete(punched, p)
					}
				}
			case 5:
				if pages := (len(model) + 4095) / 4096; pages > 0 {
					p := rng.Intn(pages)
					f.PunchHole(int64(p))
					clear(model[p*4096 : min(len(model), (p+1)*4096)])
					punched[p] = true
				}
			}
			if f.Size() != int64(len(model)) {
				t.Fatalf("round %d step %d: size %d, model %d", round, step, f.Size(), len(model))
			}
			off := rng.Intn(len(model) + 100)
			got := make([]byte, size())
			n, err := f.ReadAt(got, int64(off), Fg)
			want := model[min(off, len(model)):min(off+len(got), len(model))]
			if err != nil || n != len(want) || !bytes.Equal(got[:n], want) {
				t.Fatalf("round %d step %d: read [%d,+%d) returned %d bytes (%v), model has %d", round, step, off, len(got), n, err, len(want))
			}
		}
		all := make([]byte, len(model))
		if n, _ := f.ReadAt(all, 0, Fg); n != len(model) || !bytes.Equal(all, model) {
			t.Fatalf("round %d: final contents differ from the model", round)
		}
		pages, holes := (len(model)+4095)/4096, len(punched)
		if want := int64(pages-holes) * 4096; d.Used() != want {
			t.Fatalf("round %d: ledger holds %d bytes for %d pages less %d holes", round, d.Used(), pages, holes)
		}
		// A page stores its non-zero granules and nothing else.
		if held, want := d.Held(), nonZeroGranules(model)*32; held != want {
			t.Fatalf("round %d: file holds %d bytes, want %d for the model's non-zero granules", round, held, want)
		}
		ids := f.AllocatedPageIDs()
		for i, p := 0, 0; p < pages; p++ {
			if !punched[p] && (i >= len(ids) || ids[i] != int64(p)) || punched[p] && i < len(ids) && ids[i] == int64(p) {
				t.Fatalf("round %d: allocated pages %v, punched %v", round, ids, punched)
			}
			if !punched[p] {
				i++
			}
		}
		if len(ids) != pages-holes {
			t.Fatalf("round %d: %d allocated pages, want %d", round, len(ids), pages-holes)
		}
	}
}
