package hyperdb_test

import (
	"reflect"
	"strings"
	"testing"

	"hyperdb"
	"hyperdb/internal/core"
	"hyperdb/internal/device"
)

// TestZeroOptionsAreProduction: there is one options struct and its zero
// value is the production engine. core.Open and hyperdb.Open resolve the
// same Options alike — index mirror on, compression from L1 when a codec is
// named, devices built at the documented capacities, throttled unless
// Unthrottled — and both refuse an unknown codec.
func TestZeroOptionsAreProduction(t *testing.T) {
	open := map[string]func(hyperdb.Options) (*hyperdb.DB, error){"core": core.Open, "hyperdb": hyperdb.Open}
	for _, tc := range []struct {
		opts       hyperdb.Options
		nvme, sata device.Profile
	}{
		{hyperdb.Options{}, device.NVMeProfile(256 << 20), device.SATAProfile(8 << 30)},
		{hyperdb.Options{Unthrottled: true, NVMeCapacity: 4 << 20, SATACapacity: 32 << 20, Compress: "lz"},
			device.UnthrottledProfile("nvme", 4<<20), device.UnthrottledProfile("sata", 32<<20)},
	} {
		var resolved []hyperdb.Options
		for name, o := range open {
			db, err := o(tc.opts)
			if err != nil {
				t.Fatalf("%s.Open(%+v): %v", name, tc.opts, err)
			}
			// device.New fills the profile's unset defaults (the sector size).
			if db.NVMe().Profile() != device.New(tc.nvme).Profile() || db.SATA().Profile() != device.New(tc.sata).Profile() {
				t.Fatalf("%s.Open(%+v) built devices %+v and %+v", name, tc.opts, db.NVMe().Profile(), db.SATA().Profile())
			}
			got := db.Options()
			db.Close()
			if got.DisableIndexMirror || got.CompressMinLevel != 1 || got.Compress != tc.opts.Compress {
				t.Fatalf("%s.Open(%+v) resolved mirror off=%v, compress %q from L%d", name, tc.opts, got.DisableIndexMirror, got.Compress, got.CompressMinLevel)
			}
			got.NVMeDevice, got.SATADevice = nil, nil
			resolved = append(resolved, got)
		}
		if !reflect.DeepEqual(resolved[0], resolved[1]) {
			t.Fatalf("core and hyperdb resolve %+v differently:\n%+v\n%+v", tc.opts, resolved[0], resolved[1])
		}
	}
	for name, o := range open {
		if db, err := o(hyperdb.Options{Unthrottled: true, Compress: "bogus"}); err == nil {
			db.Close()
			t.Fatalf("%s.Open accepted codec %q", name, "bogus")
		}
	}
}

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
