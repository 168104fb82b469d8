package harness

import (
	"testing"

	"hyperdb/internal/core"
	"hyperdb/internal/ycsb"
)

// TestDiagYCSBB runs the three main engines through a throttled YCSB-B at
// default scale and asserts the paper's headline read-heavy ordering:
// HyperDB at least matches RocksDB. Slow (~30s); skipped in -short.
func TestDiagYCSBB(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled default-scale run")
	}
	if raceEnabled {
		t.Skip("throughput ordering is meaningless under the race detector")
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
		nv0 := inst.NVMe.Counters().Snapshot()
		sa0 := inst.SATA.Counters().Snapshot()
		res, err := Run(inst, RunConfig{
			Clients: s.Clients, Ops: s.Ops, Workload: ycsb.WorkloadB,
			Records: s.Records, ValueSize: s.ValueSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		nv := inst.NVMe.Counters().Snapshot().Sub(nv0)
		sa := inst.SATA.Counters().Snapshot().Sub(sa0)
		tput[kind] = res.Throughput
		t.Logf("%s: tput=%.0f readP50=%v readP99=%v", inst.Kind.Label(), res.Throughput, res.ReadLat.Median(), res.ReadLat.P99())
		t.Logf("  NVMe: fgReadOps=%d bgReadOps=%d fgWriteOps=%d", nv.ReadOps-nv.BgReadOps, nv.BgReadOps, nv.WriteOps-nv.BgWriteOps)
		t.Logf("  SATA: fgReadOps=%d bgReadOps=%d bgWriteBytes=%dMB", sa.ReadOps-sa.BgReadOps, sa.BgReadOps, sa.BgWriteBytes>>20)
		if h, ok := inst.Engine.(*core.DB); ok {
			st := h.Stats()
			t.Logf("  zone: objects=%d migrations=%d hotEvict=%d/%d promoDropped=%d cacheHits=%d cacheMiss=%d",
				st.Zone.Objects, st.Zone.Migrations, st.Zone.HotEvictDropped, st.Zone.HotEvictRelocated, st.PromotionsDropped, st.CacheHits, st.CacheMisses)
			var slab, idx int64
			for _, name := range inst.NVMe.List() {
				f, _ := inst.NVMe.Open(name)
				if f == nil {
					continue
				}
				if len(name) > 4 && name[len(name)-4:] == ".idx" {
					idx += f.AllocatedBytes()
				} else {
					slab += f.AllocatedBytes()
				}
			}
			t.Logf("  nvme used=%d cap=%d slab=%d idxMirror=%d files=%d",
				inst.NVMe.Used(), inst.NVMe.Capacity(), slab, idx, len(inst.NVMe.List()))
		}
		inst.Engine.Close()
	}
	// Guard against catastrophic regressions only (see diag2_test.go).
	if tput[KindHyperDB] < 0.6*tput[KindRocksDB] {
		t.Errorf("read-heavy ordering broken: HyperDB %.0f < 0.6x RocksDB %.0f",
			tput[KindHyperDB], tput[KindRocksDB])
	}
}
