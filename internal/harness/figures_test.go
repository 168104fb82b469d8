package harness

import (
	"fmt"
	"strings"
	"testing"

	"hyperdb"
	"hyperdb/internal/device"
	"hyperdb/internal/ycsb"
)

func tinyScale() Scale {
	return Scale{
		Records:   30_000,
		Ops:       20_000,
		ValueSize: 128,
		Clients:   4,
		NVMeRatio: 0.16,
		SATACap:   2 << 30,
		Throttled: false,
	}
}

// TestFig6Shape asserts the paper's Figure 6a property: the conditional
// probability rises with the number of consistent past intervals s.
func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6(tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []string{"10", "20"} {
		m1, ok1 := tbl.Get(fmt.Sprintf("t=%s%%/s=1", tf), "median")
		m5, ok5 := tbl.Get(fmt.Sprintf("t=%s%%/s=5", tf), "median")
		if !ok1 || !ok5 {
			t.Fatalf("missing rows for t=%s%%", tf)
		}
		if m5 < m1 {
			t.Errorf("t=%s%%: median(s=5)=%.1f < median(s=1)=%.1f", tf, m5, m1)
		}
	}
}

// TestFig9bMigrationLocality asserts the §4.2 claim behind Figure 9b: at
// small values, HyperDB's zone layout reads far fewer pages per migrated
// object than PrismDB's slab layout.
func TestFig9bMigrationLocality(t *testing.T) {
	s := tinyScale()
	s.ValueSize = 64
	perObj := map[EngineKind]float64{}
	for _, kind := range []EngineKind{KindPrismDB, KindHyperDB} {
		inst, err := Build(kind, s.config())
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(inst.Engine, RunConfig{
			Clients: s.Clients, Ops: s.Ops, Workload: ycsb.WorkloadA,
			Records: s.Records, ValueSize: s.ValueSize,
		}); err != nil {
			t.Fatal(err)
		}
		switch a := inst.Engine.(type) {
		case *hyperAdapter:
			st := a.Stats().Zone
			if st.MigratedObjects == 0 {
				t.Fatal("hyperdb: no migrations")
			}
			perObj[kind] = float64(st.MigrationPageReads) / float64(st.MigratedObjects)
		case *prismAdapter:
			st := a.db.Stats()
			if st.MigratedObjects == 0 {
				t.Fatal("prismdb: no migrations")
			}
			perObj[kind] = float64(st.MigrationPageReads) / float64(st.MigratedObjects)
		}
		inst.Engine.Close()
	}
	if perObj[KindHyperDB]*2 > perObj[KindPrismDB] {
		t.Errorf("migration locality: hyperdb %.3f pages/obj vs prismdb %.3f — want ≥2x advantage",
			perObj[KindHyperDB], perObj[KindPrismDB])
	}
}

// TestAblationRuns exercises every ablation variant end to end at tiny scale.
func TestAblationRuns(t *testing.T) {
	s := tinyScale()
	s.Records = 15_000
	s.Ops = 8_000
	tbl, err := Ablation(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 6 {
		t.Fatalf("expected ≥6 ablation rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		v, ok := tbl.Get(row.Label, "tput")
		if !ok {
			v, ok = tbl.Get(row.Label, "tputE")
		}
		if !ok || v <= 0 {
			t.Errorf("variant %s: no throughput", row.Label)
		}
	}
	// The no-mirror variant must shift index reads to SATA: baseline keeps
	// bg SATA writes in the same ballpark, so just sanity-check presence.
	var sb strings.Builder
	tbl.Fprint(&sb)
	if !strings.Contains(sb.String(), "no-index-mirror") {
		t.Fatal("missing no-index-mirror variant")
	}
}

// TestFig11TrafficOrdering asserts the headline Figure 11 ordering at tiny
// scale: HyperDB writes less than RocksDB-SC, and RocksDB-SC writes the most.
func TestFig11TrafficOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := Fig11(tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(engine string) float64 {
		v, ok := tbl.Get(engine, "totalWrite")
		if !ok {
			t.Fatalf("missing row %s", engine)
		}
		return v
	}
	hyper, sc := get("HyperDB"), get("RocksDB-SC")
	if hyper >= sc {
		t.Errorf("HyperDB total write %.0f >= RocksDB-SC %.0f", hyper, sc)
	}
}

// TestScanPrefetchEquivalence verifies the prefetcher changes performance,
// never results.
func TestScanPrefetchEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("NVMe traffic comparison is timing-sensitive under the race detector")
	}
	s := tinyScale()
	var results [2][]KV
	var reads [2]uint64
	for i, prefetch := range []bool{false, true} {
		cfg := s.config()
		nvme := device.New(device.UnthrottledProfile("nvme", cfg.NVMeCapacity))
		sata := device.New(device.UnthrottledProfile("sata", cfg.SATACapacity))
		db, err := hyperdb.Open(hyperdb.Options{
			NVMeDevice: nvme, SATADevice: sata,
			Partitions: cfg.Partitions, MigrationBatch: cfg.FileSize,
			ScanPrefetch: prefetch, DisableBackground: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := &hyperAdapter{db: db}
		// One loader: the read counts are only comparable when both engines
		// hold the same tier, and concurrent loaders interleave differently
		// every run (four of them failed this test 18 times in 40).
		if err := Load(eng, 20000, 64, 1, 7); err != nil {
			t.Fatal(err)
		}
		before := nvme.Counters().ReadBytes.Load()
		kvs, err := eng.Scan(ycsb.Key(5), 500)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = nvme.Counters().ReadBytes.Load() - before
		results[i] = kvs
		db.Close()
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("prefetch changed result count: %d vs %d", len(results[0]), len(results[1]))
	}
	for j := range results[0] {
		if string(results[0][j].Key) != string(results[1][j].Key) ||
			string(results[0][j].Value) != string(results[1][j].Value) {
			t.Fatalf("prefetch changed result %d", j)
		}
	}
	if reads[1] > reads[0] {
		t.Errorf("prefetch read MORE from NVMe: %d vs %d", reads[1], reads[0])
	}
}

// TestHotQualityParity asserts the sketch tracker's promotion quality on a
// zipfian YCSB-A run tracks the bloom reproduction baseline: recall against
// the top-1% ground truth must not trail by more than 10 points, and the
// background traffic its promotions trigger must stay within a few percent.
func TestHotQualityParity(t *testing.T) {
	// More ops than tinyScale: each partition's discriminator must seal
	// several windows (capacity ~800 distinct keys here) for the 3-window
	// classification to engage at all.
	s := tinyScale()
	s.Records = 20_000
	s.Ops = 240_000
	tbl, err := HotQuality(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	bRecall, ok1 := tbl.Get("bloom", "recall")
	sRecall, ok2 := tbl.Get("sketch", "recall")
	bTraffic, ok3 := tbl.Get("bloom", "bgTraffic")
	sTraffic, ok4 := tbl.Get("sketch", "bgTraffic")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing hotq cells: %v", tbl.Rows)
	}
	if bRecall <= 0 {
		t.Fatalf("bloom recall %.1f%%: discriminator never engaged", bRecall)
	}
	if sRecall < bRecall-10 {
		t.Errorf("sketch recall %.1f%% trails bloom %.1f%% by more than 10 points", sRecall, bRecall)
	}
	// Background traffic at this unthrottled tiny scale is scheduling-
	// dependent (worker/foreground races), so only a wide sanity band is
	// asserted here; the recorded BENCH_hotness.json run compares traffic at
	// full scale on throttled devices.
	if bTraffic > 0 {
		ratio := sTraffic / bTraffic
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("sketch bg traffic %.1f MiB vs bloom %.1f MiB (ratio %.2f) outside sanity band", sTraffic, bTraffic, ratio)
		}
	}
}
