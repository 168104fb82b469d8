package hyperdb_test

import (
	"strings"
	"testing"

	"hyperdb"
	"hyperdb/internal/device"
)

func TestDefaultOptionsOpen(t *testing.T) {
	db, err := hyperdb.Open(hyperdb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.NVMe() == nil || db.SATA() == nil {
		t.Fatal("devices not built")
	}
	if db.NVMe().Capacity() != 256<<20 {
		t.Fatalf("default NVMe capacity = %d", db.NVMe().Capacity())
	}
	if db.SATA().Capacity() != 8<<30 {
		t.Fatalf("default SATA capacity = %d", db.SATA().Capacity())
	}
	// Paper-profile devices are throttled by default.
	if db.NVMe().Profile().ReadLatency == 0 {
		t.Fatal("default NVMe profile should be throttled")
	}
}

func TestExplicitDevicesUsed(t *testing.T) {
	nvme := device.New(device.UnthrottledProfile("nvme", 8<<20))
	sata := device.New(device.UnthrottledProfile("sata", 64<<20))
	db, err := hyperdb.Open(hyperdb.Options{NVMeDevice: nvme, SATADevice: sata})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.NVMe() != nvme || db.SATA() != sata {
		t.Fatal("provided devices not used")
	}
}

func TestUnthrottledOption(t *testing.T) {
	db, err := hyperdb.Open(hyperdb.Options{Unthrottled: true, NVMeCapacity: 4 << 20, SATACapacity: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.NVMe().Profile()
	if p.ReadLatency != 0 || p.ReadBandwidth != 0 {
		t.Fatalf("unthrottled profile has costs: %+v", p)
	}
}

func TestStatsStringReadable(t *testing.T) {
	db, err := hyperdb.Open(hyperdb.Options{Unthrottled: true, NVMeCapacity: 4 << 20, SATACapacity: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	s := db.Stats().String()
	for _, want := range []string{"NVMe:", "SATA:", "Zone tier:", "cache{hit=", " rejected=0 sketch="} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats string missing %q:\n%s", want, s)
		}
	}
}
