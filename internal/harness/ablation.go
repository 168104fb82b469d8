package harness

import (
	"fmt"
	"io"

	"hyperdb"
	"hyperdb/internal/ycsb"
)

// Ablation quantifies HyperDB's individual design choices by rebuilding the
// engine with one knob changed at a time and re-running a YCSB-A measurement:
//
//   - preemptive compaction depth k (1 disables the §3.4 preemptive chase);
//   - T_clean, the dirty ratio that forces full table compactions;
//   - the hot-zone budget (≈0 effectively disables §3.5 promotions);
//   - the §3.1 NVMe index mirror.
//
// Reported per variant: throughput, background write bytes per tier, space
// amplification, and migration page reads — the quantities each knob is
// supposed to move.
func Ablation(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Ablation", Caption: "HyperDB design-choice ablations (YCSB-A)"}

	type variant struct {
		name string
		mut  func(*hyperdb.Options)
	}
	variants := []variant{
		{"baseline", func(o *hyperdb.Options) {}},
		{"depth=1(no-preempt)", func(o *hyperdb.Options) { o.CompactionDepth = 1 }},
		{"depth=3", func(o *hyperdb.Options) { o.CompactionDepth = 3 }},
		{"tclean=0.25", func(o *hyperdb.Options) { o.TClean = 0.25 }},
		{"tclean=0.90", func(o *hyperdb.Options) { o.TClean = 0.90 }},
		{"no-hot-zone", func(o *hyperdb.Options) { o.HotZoneFraction = 0.01 }},
		{"no-index-mirror", func(o *hyperdb.Options) { o.DisableIndexMirror = true }},
	}

	for _, v := range variants {
		inst, err := buildHyper(s.config(), v.mut)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		db := inst.Engine.(*hyperdb.DB)
		if err := Load(db, s.Records, s.ValueSize, s.Clients, 7); err != nil {
			db.Close()
			return nil, fmt.Errorf("ablation %s load: %w", v.name, err)
		}
		res, err := Run(inst, RunConfig{
			Clients: s.Clients, Ops: s.Ops, Workload: ycsb.WorkloadA,
			Records: s.Records, ValueSize: s.ValueSize,
		})
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("ablation %s run: %w", v.name, err)
		}
		st := db.Stats()
		cells := []Cell{
			{"tput", res.Throughput / 1000, "kops"},
			{"bgWriteNVMe", float64(st.NVMe.BgWriteBytes) / (1 << 20), "MiB"},
			{"bgWriteSATA", float64(st.SATA.BgWriteBytes) / (1 << 20), "MiB"},
			{"spaceAmp", st.SpaceAmp, "x"},
			{"readP99", float64(res.ReadLat.P99()) / 1e3, "us"},
		}
		if st.Zone.MigratedObjects > 0 {
			cells = append(cells, Cell{"pagesPerObj",
				float64(st.Zone.MigrationPageReads) / float64(st.Zone.MigratedObjects), ""})
		}
		db.Close()
		t.Rows = append(t.Rows, Row{Label: v.name, Cells: cells})
		if progress != nil {
			fmt.Fprintf(progress, "ablation: %s %.0f kops\n", v.name, res.Throughput/1000)
		}
	}

	return t, nil
}
