package harness

import (
	"testing"

	"hyperdb/internal/ycsb"
)

// TestDiagYCSBA compares the write-heavy ordering at default scale.
// Slow; skipped in -short.
func TestDiagYCSBA(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled default-scale run")
	}
	s := DefaultScale()
	tput := map[EngineKind]float64{}
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB, KindHyperDB} {
		inst, err := Build(kind, s.config())
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
			t.Fatal(err)
		}
		res, err := Run(inst, RunConfig{
			Clients: s.Clients, Ops: s.Ops, Workload: ycsb.WorkloadA,
			Records: s.Records, ValueSize: s.ValueSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		tput[kind] = res.Throughput
		t.Logf("%s: tput=%.0f readP99=%v writeP99=%v", inst.Kind.Label(), res.Throughput, res.ReadLat.P99(), res.WriteLat.P99())
		inst.Engine.Close()
	}
	// Guard against catastrophic regressions only: timing under a loaded CI
	// host swings ±2x, so this is not a calibration assertion (EXPERIMENTS.md
	// records calibrated numbers from isolated runs).
	if tput[KindHyperDB] < 0.5*tput[KindRocksDB] {
		t.Errorf("HyperDB %.0f < 0.5x RocksDB %.0f on YCSB-A", tput[KindHyperDB], tput[KindRocksDB])
	}
}
