package crashtest

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
)

// TestRecoverReadFaultFailsClosed arms a read fault during recovery itself.
// Recovery must surface the device error rather than misclassifying an
// intact table as a crash artifact — deleting a file on a transient read
// fault would turn the fault into permanent data loss. No file present
// before the failed recovery may be missing afterwards, and once the fault
// clears, recovery must succeed over the same devices.
func TestRecoverReadFaultFailsClosed(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			nvme := device.New(device.UnthrottledProfile("nvme", f.NVMeCap))
			sata := device.New(device.UnthrottledProfile("sata", f.SATACap))
			cfg := Config{NVMe: nvme, SATA: sata}
			eng, err := f.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for _, o := range genTrace(rng, 32, 150) {
				switch o.kind {
				case opPut:
					err = eng.Put([]byte(o.key), []byte(o.value))
				case opDelete:
					err = eng.Delete([]byte(o.key))
				case opStep:
					err = eng.BackgroundStep()
				default:
					_, gerr := eng.Get([]byte(o.key))
					if gerr != nil && !errors.Is(gerr, engine.ErrNotFound) {
						err = gerr
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			nvme.PowerCut()
			sata.PowerCut()
			before := append(nvme.List(), sata.List()...)
			sort.Strings(before)

			nvme.InjectFaults(device.FaultPlan{Seed: 9, FailReadAfter: 1})
			sata.InjectFaults(device.FaultPlan{Seed: 9, FailReadAfter: 1})
			if _, err := f.Open(cfg); err == nil {
				t.Fatal("recovery with an armed read fault succeeded silently")
			}
			nvme.ClearFaults()
			sata.ClearFaults()

			after := make(map[string]bool)
			for _, n := range append(nvme.List(), sata.List()...) {
				after[n] = true
			}
			for _, n := range before {
				if !after[n] {
					t.Fatalf("failed recovery deleted %q", n)
				}
			}

			reng, err := f.Open(cfg)
			if err != nil {
				t.Fatalf("recover after clearing fault: %v", err)
			}
			defer reng.Close()
			if _, err := reng.Scan([]byte(""), 64); err != nil {
				t.Fatalf("scan after recovery: %v", err)
			}
		})
	}
}
