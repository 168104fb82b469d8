package hyperdb_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hyperdb"
	"hyperdb/internal/device"
	"hyperdb/internal/ycsb"
)

// TestRecoverRoundtrip writes across both tiers, closes the DB, recovers
// from the same devices, and verifies every key, tombstone and follow-up
// write.
func TestRecoverRoundtrip(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 2<<20))
	sata := device.New(device.UnthrottledProfile("sata", 1<<30))
	opts := hyperdb.Options{
		NVMeDevice:        nvme,
		SATADevice:        sata,
		Partitions:        4,
		CacheBytes:        2 << 20,
		MigrationBatch:    256 << 10,
		DisableBackground: true,
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 30000
	rng := rand.New(rand.NewSource(5))
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		k := ycsb.Key(int64(rng.Intn(n)))
		v := make([]byte, 32+rng.Intn(128))
		rng.Read(v)
		if err := db.Put(k, v); err != nil {
			t.Fatalf("put: %v", err)
		}
		want[string(k)] = v
	}
	// Some deletions, including of keys already demoted.
	deleted := map[string]bool{}
	for i := 0; i < n; i += 37 {
		k := ycsb.Key(int64(i))
		if err := db.Delete(k); err != nil {
			t.Fatalf("delete: %v", err)
		}
		delete(want, string(k))
		deleted[string(k)] = true
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	preStats := db.Stats()
	if preStats.Zone.Migrations == 0 {
		t.Fatal("test setup: no data reached the capacity tier")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover from the same devices.
	re, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Close()

	for k, v := range want {
		got, err := re.Get([]byte(k))
		if err != nil {
			t.Fatalf("get %x after recover: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("get %x after recover: %d bytes, want %d", k, len(got), len(v))
		}
	}
	for k := range deleted {
		if _, ok := want[k]; ok {
			continue
		}
		if _, err := re.Get([]byte(k)); !errors.Is(err, hyperdb.ErrNotFound) {
			t.Fatalf("deleted key %x resurrected after recover: %v", k, err)
		}
	}

	// Scans still globally ordered across recovered tiers.
	kvs, err := re.Scan(ycsb.Key(0), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(kvs); i++ {
		if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
			t.Fatal("recovered scan out of order")
		}
	}

	// New writes continue with monotonically increasing sequences: an
	// overwrite after recovery must win over the recovered version.
	victim := []byte(nil)
	for k := range want {
		victim = []byte(k)
		break
	}
	if err := re.Put(victim, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	got, err := re.Get(victim)
	if err != nil || string(got) != "post-recovery" {
		t.Fatalf("post-recovery overwrite: %q %v", got, err)
	}
	// And survives migration pressure.
	if err := re.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	got, err = re.Get(victim)
	if err != nil || string(got) != "post-recovery" {
		t.Fatalf("post-recovery overwrite after drain: %q %v", got, err)
	}
}

// TestRecoverEmptyDB recovers a never-written database.
func TestRecoverEmptyDB(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 4<<20))
	sata := device.New(device.UnthrottledProfile("sata", 64<<20))
	opts := hyperdb.Options{
		NVMeDevice: nvme, SATADevice: sata,
		Partitions: 2, DisableBackground: true,
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Get([]byte("anything")); !errors.Is(err, hyperdb.ErrNotFound) {
		t.Fatalf("empty recover get: %v", err)
	}
	if err := re.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverIdempotent recovers twice in a row (crash during recovery).
func TestRecoverIdempotent(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 4<<20))
	sata := device.New(device.UnthrottledProfile("sata", 256<<20))
	opts := hyperdb.Options{
		NVMeDevice: nvme, SATADevice: sata,
		Partitions: 2, MigrationBatch: 128 << 10, DisableBackground: true,
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		db.Put(ycsb.Key(int64(i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.DrainBackground()
	db.Close()

	r1, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	r2, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	defer r2.Close()
	for i := 0; i < 5000; i += 111 {
		v, err := r2.Get(ycsb.Key(int64(i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d after double recover: %q %v", i, v, err)
		}
	}
}

// TestReopenWithAnotherSegmentGeometryFails writes past the NVMe tier, so
// every partition demotes into its tree, and reopens with four times the L1
// segments. Tables recovered at the segments their names give under the old
// geometry would be looked up by the new one, which routes most keys to
// segments that do not hold them: the reopen must fail, naming the
// geometry, and a reopen with the original options must read every acked
// key.
func TestReopenWithAnotherSegmentGeometryFails(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 2<<20))
	sata := device.New(device.UnthrottledProfile("sata", 1<<30))
	opts := hyperdb.Options{
		NVMeDevice:     nvme,
		SATADevice:     sata,
		Partitions:     4,
		CacheBytes:     2 << 20,
		MigrationBatch: 256 << 10,
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	value := func(i int) string { return fmt.Sprintf("v%d-%0120d", i, i) }
	for i := 0; i < n; i++ {
		if err := db.Put(ycsb.Key(int64(i)), []byte(value(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DrainBackground(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Zone.Migrations == 0 {
		t.Fatal("nothing was demoted into the trees")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	other := opts
	other.L1Segments = 8
	if re, err := hyperdb.Open(other); err == nil {
		wrong := 0
		for i := 0; i < n; i++ {
			if v, err := re.Get(ycsb.Key(int64(i))); err != nil || string(v) != value(i) {
				wrong++
			}
		}
		re.Close()
		t.Fatalf("a reopen with 8 L1 segments over a 2-segment store succeeded, and %d of %d acked keys read wrong or not found", wrong, n)
	} else if !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("a reopen with 8 L1 segments failed with %v, want an error naming the geometry", err)
	}

	re, err := hyperdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < n; i++ {
		if v, err := re.Get(ycsb.Key(int64(i))); err != nil || string(v) != value(i) {
			t.Fatalf("get %d after reopening with the original geometry: %q %v", i, v, err)
		}
	}
}
