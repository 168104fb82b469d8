package core

import (
	"fmt"
	"strings"
	"testing"

	"hyperdb/internal/device"
)

// mirrorTestOpts sizes the engine so a few hundred puts overflow the
// performance tier and force migrations, which build L1 semi-SSTables whose
// indexes are mirrored to NVMe.
func mirrorTestOpts(nvme, sata *device.Device) Options {
	return Options{
		NVMeDevice:        nvme,
		SATADevice:        sata,
		Partitions:        2,
		CacheBytes:        64 << 10,
		MigrationBatch:    8 << 10,
		MaxLevels:         3,
		DisableBackground: true,
	}
}

func countIdxMirrors(d *device.Device) int {
	n := 0
	for _, name := range d.List() {
		if strings.HasSuffix(name, ".sst.idx") {
			n++
		}
	}
	return n
}

// TestRecoverWithIndexMirror covers the index-mirror path through
// Recover: index mirrors must exist on the performance tier before the
// crash-free restart, survive it, and the recovered tree must serve every
// key. Orphaned mirrors (whose table is gone) must be swept.
func TestRecoverWithIndexMirror(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 64<<10))
	sata := device.New(device.UnthrottledProfile("sata", 8<<20))
	db, err := Open(mirrorTestOpts(nvme, sata))
	if err != nil {
		t.Fatal(err)
	}

	// Spread keys across both partitions; drive migration/compaction by hand.
	want := make(map[string]string)
	for i := 0; i < 400; i++ {
		k := k8(uint64(i) * 0x9E3779B97F4A7C15)
		v := fmt.Sprintf("value-%04d-%s", i, strings.Repeat("x", 96))
		if err := db.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[string(k)] = v
		if i%16 == 15 {
			for pid := 0; pid < db.Partitions(); pid++ {
				if err := db.MigrationStep(pid); err != nil {
					t.Fatal(err)
				}
				if _, err := db.CompactionStep(pid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := db.Stats().Zone.Migrations; got == 0 {
		t.Fatal("no migrations ran; test is not exercising the capacity tier")
	}
	if got := countIdxMirrors(nvme); got == 0 {
		t.Fatal("index mirror on but no .sst.idx files on the NVMe device")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(mirrorTestOpts(nvme, sata))
	if err != nil {
		t.Fatal(err)
	}
	if got := countIdxMirrors(nvme); got == 0 {
		t.Fatal("index mirrors vanished across recovery")
	}
	for k, v := range want {
		got, err := re.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %x after recover: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("get %x after recover = %q, want %q", k, got, v)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// An orphaned mirror — its table deleted out from under it — must be
	// removed by the next recovery, and a mirror whose table survives kept.
	if _, err := nvme.Create("p0-L1-S0-G9999.sst.idx"); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(mirrorTestOpts(nvme, sata))
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	for _, name := range nvme.List() {
		if name == "p0-L1-S0-G9999.sst.idx" {
			t.Fatal("orphaned index mirror not swept by Recover")
		}
	}
	if got := countIdxMirrors(nvme); got == 0 {
		t.Fatal("live index mirrors removed by orphan sweep")
	}
	for k, v := range want {
		got, err := re2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("get %x after second recover = %q, %v (want %q)", k, got, err, v)
		}
	}
}

// TestRecoverWithoutMirror is the control: with the mirror disabled no .idx
// files appear and recovery still serves the data from SATA alone.
func TestRecoverWithoutMirror(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 64<<10))
	sata := device.New(device.UnthrottledProfile("sata", 8<<20))
	opts := mirrorTestOpts(nvme, sata)
	opts.DisableIndexMirror = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put(k8(uint64(i)*0x9E3779B97F4A7C15), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			for pid := 0; pid < db.Partitions(); pid++ {
				if err := db.MigrationStep(pid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := countIdxMirrors(nvme); got != 0 {
		t.Fatalf("mirror disabled but %d .sst.idx files on NVMe", got)
	}
	db.Close()
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 200; i++ {
		if _, err := re.Get(k8(uint64(i) * 0x9E3779B97F4A7C15)); err != nil {
			t.Fatalf("get %d after mirror-less recover: %v", i, err)
		}
	}
}
