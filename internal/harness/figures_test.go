package harness

import (
	"fmt"
	"strings"
	"testing"

	"hyperdb"
	"hyperdb/internal/baseline/prismish"
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
		if _, err := Run(inst, RunConfig{
			Clients: s.Clients, Ops: s.Ops, Workload: ycsb.WorkloadA,
			Records: s.Records, ValueSize: s.ValueSize,
		}); err != nil {
			t.Fatal(err)
		}
		switch db := inst.Engine.(type) {
		case *hyperdb.DB:
			st := db.Stats().Zone
			if st.MigratedObjects == 0 {
				t.Fatal("hyperdb: no migrations")
			}
			perObj[kind] = float64(st.MigrationPageReads) / float64(st.MigratedObjects)
		case *prismish.DB:
			st := db.Stats()
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
		if v, ok := tbl.Get(row.Label, "tput"); !ok || v <= 0 {
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

// TestHotQualityParity pins the discriminator's promotion quality on a
// zipfian YCSB-A run against the top-1% ground truth. The run has one client
// and no background workers, so the row is exactly reproducible (recall
// 100 %, precision 7.55 % — 2649 keys classified for 200 truly hot — when
// this was written); the floors sit a little under it, so an edit that
// blunts the classifier fails here while one that moves a handful of
// borderline keys does not.
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
	recall, ok1 := tbl.Get("bloom", "recall")
	precision, ok2 := tbl.Get("bloom", "precision")
	if !ok1 || !ok2 {
		t.Fatalf("missing hotq cells: %v", tbl.Rows)
	}
	t.Logf("recall %.2f%% precision %.2f%%", recall, precision)
	if recall < 95 {
		t.Errorf("recall %.1f%% under the 95%% floor", recall)
	}
	if precision < 6 {
		t.Errorf("precision %.1f%% under the 6%% floor", precision)
	}
}
