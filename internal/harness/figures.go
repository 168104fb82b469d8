package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hyperdb/internal/baseline/prismish"
	"hyperdb/internal/core"
	"hyperdb/internal/engine"
	"hyperdb/internal/hotness"
	"hyperdb/internal/lsm"
	"hyperdb/internal/stats"
	"hyperdb/internal/ycsb"
)

// Scale sizes every experiment. The default is the paper's setup scaled so
// each figure regenerates in seconds; Mult stretches all dimensions for
// higher-fidelity runs (hyperbench -scale).
type Scale struct {
	Records   int64 // loaded keys (paper: ~800 M for 100 GiB @128 B)
	Ops       int64 // measured operations (paper: 100 M)
	ValueSize int   // paper default: 128 B
	Clients   int   // paper: 8
	NVMeRatio float64
	SATACap   int64
	Throttled bool
	// Compress names the capacity-tier block codec for every engine
	// (hyperbench -compress; empty = raw blocks, the paper default).
	Compress string
}

// DefaultScale is used by hyperbench; benchmarks use a smaller one.
func DefaultScale() Scale {
	return Scale{
		Records:   200_000,
		Ops:       100_000,
		ValueSize: 128,
		Clients:   8,
		NVMeRatio: 0.16,
		SATACap:   4 << 30,
		Throttled: true,
	}
}

// Mult scales records and ops by f.
func (s Scale) Mult(f float64) Scale {
	s.Records = int64(float64(s.Records) * f)
	s.Ops = int64(float64(s.Ops) * f)
	return s
}

// datasetBytes estimates the loaded payload.
func (s Scale) datasetBytes() int64 {
	return s.Records * int64(s.ValueSize+8+16)
}

// config derives a device/engine config from the scale.
func (s Scale) config() Config {
	nvme := int64(float64(s.datasetBytes()) * s.NVMeRatio)
	if nvme < 4<<20 {
		nvme = 4 << 20
	}
	c := Config{
		NVMeCapacity: nvme,
		SATACapacity: s.SATACap,
		Unthrottled:  !s.Throttled,
		CacheBytes:   s.datasetBytes() / 16,
		FileSize:     512 << 10,
		Compress:     s.Compress,
	}
	c.Fill()
	return c
}

// Row is one line of a figure's data table: a label plus named columns.
type Row struct {
	Label string
	Cells []Cell
}

// Cell is one named value.
type Cell struct {
	Name  string
	Value float64
	Unit  string
}

// Table is a reproduced figure: its id, caption and rows.
type Table struct {
	ID      string
	Caption string
	Rows    []Row
}

// JSON renders the table as a machine-readable object.
func (t *Table) JSON() ([]byte, error) {
	type cellJ struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit,omitempty"`
	}
	type rowJ struct {
		Label string  `json:"label"`
		Cells []cellJ `json:"cells"`
	}
	out := struct {
		ID      string `json:"id"`
		Caption string `json:"caption"`
		Rows    []rowJ `json:"rows"`
	}{ID: t.ID, Caption: t.Caption}
	for _, r := range t.Rows {
		rj := rowJ{Label: r.Label}
		for _, c := range r.Cells {
			rj.Cells = append(rj.Cells, cellJ{c.Name, c.Value, c.Unit})
		}
		out.Rows = append(out.Rows, rj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Caption)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-28s", r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(w, "  %s=%.3g%s", c.Name, c.Value, c.Unit)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Get retrieves a cell value by row label and cell name (tests use this).
func (t *Table) Get(label, name string) (float64, bool) {
	for _, r := range t.Rows {
		if r.Label != label {
			continue
		}
		for _, c := range r.Cells {
			if c.Name == name {
				return c.Value, true
			}
		}
	}
	return 0, false
}

// workloadU is the write-only uniform workload of §2.3's motivation study.
var workloadU = ycsb.Workload{Name: "U", UpdateProp: 1.0, Dist: ycsb.Uniform}

// Fig2 reproduces Figure 2: NVMe bandwidth (read vs write) and capacity
// utilisation for the two baseline architectures under a write-only uniform
// workload, as background threads increase.
func Fig2(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig2", Caption: "NVMe bandwidth utilisation and capacity use vs background threads (write-only uniform)"}
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB} {
		for _, threads := range []int{1, 2, 4, 8} {
			cfg := s.config()
			cfg.BackgroundThreads = threads
			inst, err := Build(kind, cfg)
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			before := inst.NVMe.Counters().Snapshot()
			inst.NVMe.ResetUtilization()
			t0 := time.Now()
			res, err := Run(inst, RunConfig{
				Clients: s.Clients, Ops: s.Ops, Workload: workloadU,
				Records: s.Records, ValueSize: s.ValueSize,
			})
			if err != nil {
				inst.Engine.Close()
				return nil, err
			}
			dur := time.Since(t0).Seconds()
			d := inst.NVMe.Counters().Snapshot().Sub(before)
			util := inst.NVMe.Utilization()
			usedFrac := inst.NVMe.UsedFraction()
			inst.Engine.Close()
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s/threads=%d", inst.Kind.Label(), threads),
				Cells: []Cell{
					{"readBW", float64(d.ReadBytes) / dur / (1 << 20), "MiB/s"},
					{"writeBW", float64(d.WriteBytes) / dur / (1 << 20), "MiB/s"},
					{"util", util * 100, "%"},
					{"capUsed", usedFrac * 100, "%"},
					{"tput", res.Throughput / 1000, "kops"},
				},
			})
			if progress != nil {
				fmt.Fprintf(progress, "fig2: %s threads=%d done\n", inst.Kind.Label(), threads)
			}
		}
	}
	return t, nil
}

// Fig3 reproduces Figure 3: capacity-tier compaction bandwidth vs threads
// (3a) and the per-level compaction I/O breakdown (3b).
func Fig3(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig3", Caption: "Capacity-tier compaction bandwidth vs threads; per-level I/O breakdown"}
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB} {
		for _, threads := range []int{1, 2, 4, 8} {
			cfg := s.config()
			cfg.BackgroundThreads = threads
			// The paper's Fig. 3b profiles an LSM with five *populated*
			// levels; shrink the geometry so the scaled dataset reaches
			// the deepest level like the paper's 100 GiB load did.
			cfg.Ratio = 4
			cfg.FileSize = 256 << 10
			inst, err := Build(kind, cfg)
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			before := inst.SATA.Counters().Snapshot()
			inst.SATA.ResetUtilization()
			t0 := time.Now()
			if _, err := Run(inst, RunConfig{
				Clients: s.Clients, Ops: s.Ops, Workload: workloadU,
				Records: s.Records, ValueSize: s.ValueSize,
			}); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			dur := time.Since(t0).Seconds()
			d := inst.SATA.Counters().Snapshot().Sub(before)
			util := inst.SATA.Utilization()
			row := Row{
				Label: fmt.Sprintf("%s/threads=%d", inst.Kind.Label(), threads),
				Cells: []Cell{
					{"bgBW", float64(d.BgReadBytes+d.BgWriteBytes) / dur / (1 << 20), "MiB/s"},
					{"util", util * 100, "%"},
				},
			}
			// Per-level breakdown at 8 threads (Fig. 3b).
			if threads == 8 {
				// Fig 3 runs only the baselines, which expose their tree.
				tree := baselineTree(inst.Engine)
				total := float64(0)
				top, bottom := tree.Levels()
				perLevel := make([]float64, bottom+1)
				for l := top; l <= bottom; l++ {
					tr := tree.Traffic(l)
					perLevel[l] = float64(tr.ReadBytes.Load() + tr.WriteBytes.Load())
					total += perLevel[l]
				}
				for l, v := range perLevel {
					pct := 0.0
					if total > 0 {
						pct = v / total * 100
					}
					row.Cells = append(row.Cells, Cell{fmt.Sprintf("L%d", l), pct, "%"})
				}
			}
			inst.Engine.Close()
			t.Rows = append(t.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "fig3: %s threads=%d done\n", inst.Kind.Label(), threads)
			}
		}
	}
	return t, nil
}

// Fig6 reproduces Figure 6a: the correlation between historical access
// intervals and the next access. It replays an 80/20 skewed trace and
// reports P(next interval < t | previous s intervals < t) quantiles.
func Fig6(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig6a", Caption: "P(next interval < t | s past intervals < t), 80/20 trace"}
	a := hotness.NewIntervalAnalyzer()
	// 80% of accesses on 20% of objects.
	n := s.Records
	if n > 200_000 {
		n = 200_000
	}
	gen := ycsb.NewGenerator(ycsb.Workload{Name: "hot", ReadProp: 1, Dist: ycsb.Zipfian, Theta: 0.99}, n, 1, 11)
	total := s.Ops
	if total > 2_000_000 {
		total = 2_000_000
	}
	for i := int64(0); i < total; i++ {
		a.Observe(gen.Next().Key)
	}
	for _, tFrac := range []float64{0.05, 0.10, 0.20, 0.40} {
		tn := int64(float64(total) * tFrac)
		for _, sWin := range []int{1, 2, 3, 5} {
			probs := a.ConditionalProbability(tn, sWin)
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("t=%.0f%%/s=%d", tFrac*100, sWin),
				Cells: []Cell{
					{"p25", hotness.Quantile(probs, 0.25) * 100, "%"},
					{"median", hotness.Quantile(probs, 0.5) * 100, "%"},
					{"p75", hotness.Quantile(probs, 0.75) * 100, "%"},
					{"objects", float64(len(probs)), ""},
				},
			})
		}
	}
	if progress != nil {
		fmt.Fprintf(progress, "fig6: %d accesses over %d objects analysed\n", a.TotalAccesses(), a.TrackedObjects())
	}
	return t, nil
}

// Fig8 reproduces Figure 8: YCSB A–F throughput, median and P99 latency for
// all four engines. Latencies are normalised to RocksDB per workload, as in
// the paper.
func Fig8(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig8", Caption: "YCSB throughput and normalised latency"}
	workloads := []ycsb.Workload{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
		ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF,
	}
	baseMed := map[string]float64{}
	baseP99 := map[string]float64{}
	for _, kind := range AllKinds {
		for _, w := range workloads {
			ops := s.Ops
			if w.Name == "E" {
				ops = s.Ops / 10 // scans touch ScanLen keys each
				if ops == 0 {
					ops = 1
				}
			}
			inst, err := Build(kind, s.config())
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			res, err := Run(inst, RunConfig{
				Clients: s.Clients, Ops: ops, Workload: w,
				Records: s.Records, ValueSize: s.ValueSize,
			})
			inst.Engine.Close()
			if err != nil {
				return nil, err
			}
			med := float64(res.AllLat.Median())
			p99 := float64(res.AllLat.P99())
			if kind == KindRocksDB {
				baseMed[w.Name] = med
				baseP99[w.Name] = p99
			}
			nm, np := 1.0, 1.0
			if b := baseMed[w.Name]; b > 0 {
				nm = med / b
			}
			if b := baseP99[w.Name]; b > 0 {
				np = p99 / b
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s/YCSB-%s", res.Engine, w.Name),
				Cells: []Cell{
					{"tput", res.Throughput / 1000, "kops"},
					{"medianNorm", nm, "x"},
					{"p99Norm", np, "x"},
					{"median", med / 1e3, "us"},
					{"p99", p99 / 1e3, "us"},
				},
			})
			if progress != nil {
				fmt.Fprintf(progress, "fig8: %s\n", res)
			}
		}
	}
	return t, nil
}

// Fig9a reproduces Figure 9a: YCSB-A throughput across key-distribution
// skews, from uniform through zipfian 1.2.
func Fig9a(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig9a", Caption: "YCSB-A throughput vs workload skew"}
	skews := []float64{0, 0.6, 0.8, 0.99, 1.1, 1.2}
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB, KindHyperDB} {
		for _, theta := range skews {
			inst, err := Build(kind, s.config())
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			res, err := Run(inst, RunConfig{
				Clients: s.Clients, Ops: s.Ops,
				Workload: ycsb.WorkloadA.WithTheta(theta),
				Records:  s.Records, ValueSize: s.ValueSize,
			})
			inst.Engine.Close()
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s/theta=%.2f", res.Engine, theta)
			t.Rows = append(t.Rows, Row{
				Label: label,
				Cells: []Cell{{"tput", res.Throughput / 1000, "kops"}},
			})
			if progress != nil {
				fmt.Fprintf(progress, "fig9a: %s %.0f kops\n", label, res.Throughput/1000)
			}
		}
	}
	return t, nil
}

// Fig9b reproduces Figure 9b plus §4.2's migration analysis: YCSB-A
// throughput across value sizes, with migration page reads per migrated
// object for the two caching-tier engines.
func Fig9b(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig9b", Caption: "YCSB-A throughput vs value size; migration page reads per object"}
	sizes := []int{16, 64, 128, 256, 512, 1024}
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB, KindHyperDB} {
		for _, vs := range sizes {
			sc := s
			sc.ValueSize = vs
			// Keep the dataset byte size roughly constant across value
			// sizes, like the paper's fixed 100 GiB load.
			sc.Records = s.Records * int64(s.ValueSize+24) / int64(vs+24)
			inst, err := Build(kind, sc.config())
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, sc.Records, vs, sc.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			res, err := Run(inst, RunConfig{
				Clients: sc.Clients, Ops: sc.Ops, Workload: ycsb.WorkloadA,
				Records: sc.Records, ValueSize: vs,
			})
			if err != nil {
				inst.Engine.Close()
				return nil, err
			}
			cells := []Cell{{"tput", res.Throughput / 1000, "kops"}}
			switch db := inst.Engine.(type) {
			case *core.DB:
				st := db.Stats().Zone
				if st.MigratedObjects > 0 {
					cells = append(cells, Cell{"pagesPerObj", float64(st.MigrationPageReads) / float64(st.MigratedObjects), ""})
				}
			case *prismish.DB:
				st := db.Stats()
				if st.MigratedObjects > 0 {
					cells = append(cells, Cell{"pagesPerObj", float64(st.MigrationPageReads) / float64(st.MigratedObjects), ""})
				}
			}
			inst.Engine.Close()
			label := fmt.Sprintf("%s/value=%dB", res.Engine, vs)
			t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
			if progress != nil {
				fmt.Fprintf(progress, "fig9b: %s %.0f kops\n", label, res.Throughput/1000)
			}
		}
	}
	return t, nil
}

// Fig9c reproduces Figure 9c: YCSB-A throughput as the NVMe tier shrinks
// from 16% of the dataset to 1%.
func Fig9c(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig9c", Caption: "YCSB-A throughput vs NVMe:dataset ratio"}
	ratios := []float64{0.01, 0.02, 0.04, 0.08, 0.16}
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB, KindHyperDB} {
		for _, ratio := range ratios {
			sc := s
			sc.NVMeRatio = ratio
			inst, err := Build(kind, sc.config())
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, sc.Records, sc.ValueSize, sc.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			res, err := Run(inst, RunConfig{
				Clients: sc.Clients, Ops: sc.Ops, Workload: ycsb.WorkloadA,
				Records: sc.Records, ValueSize: sc.ValueSize,
			})
			inst.Engine.Close()
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s/nvme=%.0f%%", res.Engine, ratio*100)
			t.Rows = append(t.Rows, Row{
				Label: label,
				Cells: []Cell{{"tput", res.Throughput / 1000, "kops"}},
			})
			if progress != nil {
				fmt.Fprintf(progress, "fig9c: %s %.0f kops\n", label, res.Throughput/1000)
			}
		}
	}
	return t, nil
}

// Fig10 reproduces Figure 10: read and write latency (median and P99)
// across workload skews for RocksDB and HyperDB.
func Fig10(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig10", Caption: "Read/write latency breakdown vs skew"}
	skews := []float64{0, 0.8, 0.99, 1.2}
	for _, kind := range []EngineKind{KindRocksDB, KindHyperDB} {
		for _, theta := range skews {
			inst, err := Build(kind, s.config())
			if err != nil {
				return nil, err
			}
			if err := Load(inst.Engine, s.Records, s.ValueSize, s.Clients, 7); err != nil {
				inst.Engine.Close()
				return nil, err
			}
			res, err := Run(inst, RunConfig{
				Clients: s.Clients, Ops: s.Ops,
				Workload: ycsb.WorkloadA.WithTheta(theta),
				Records:  s.Records, ValueSize: s.ValueSize,
			})
			inst.Engine.Close()
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s/theta=%.2f", res.Engine, theta)
			t.Rows = append(t.Rows, Row{
				Label: label,
				Cells: []Cell{
					{"readP50", float64(res.ReadLat.Median()) / 1e3, "us"},
					{"readP99", float64(res.ReadLat.P99()) / 1e3, "us"},
					{"writeP50", float64(res.WriteLat.Median()) / 1e3, "us"},
					{"writeP99", float64(res.WriteLat.P99()) / 1e3, "us"},
				},
			})
			if progress != nil {
				fmt.Fprintf(progress, "fig10: %s done\n", label)
			}
		}
	}
	return t, nil
}

// Fig11 reproduces Figure 11: total write traffic per tier and space usage
// under a uniform-distribution YCSB-A with 1 KiB values.
func Fig11(s Scale, progress io.Writer) (*Table, error) {
	t := &Table{ID: "Fig11", Caption: "Write I/O traffic and space usage per tier (uniform, 1KiB values)"}
	sc := s
	sc.ValueSize = 1024
	sc.Records = s.Records * int64(s.ValueSize+24) / (1024 + 24) * 2
	if sc.Records < 4096 {
		sc.Records = 4096
	}
	for _, kind := range AllKinds {
		inst, err := Build(kind, sc.config())
		if err != nil {
			return nil, err
		}
		if err := Load(inst.Engine, sc.Records, sc.ValueSize, sc.Clients, 7); err != nil {
			inst.Engine.Close()
			return nil, err
		}
		if _, err := Run(inst, RunConfig{
			Clients: sc.Clients, Ops: sc.Ops,
			Workload: ycsb.WorkloadA.WithTheta(0), // uniform
			Records:  sc.Records, ValueSize: sc.ValueSize,
		}); err != nil {
			inst.Engine.Close()
			return nil, err
		}
		if err := inst.Engine.DrainBackground(); err != nil {
			inst.Engine.Close()
			return nil, err
		}
		nv := inst.NVMe.Counters().Snapshot()
		sa := inst.SATA.Counters().Snapshot()
		label := inst.Kind.Label()
		cells := []Cell{
			{"nvmeWrite", float64(nv.WriteBytes) / (1 << 20), "MiB"},
			{"sataWrite", float64(sa.WriteBytes) / (1 << 20), "MiB"},
			{"totalWrite", float64(nv.WriteBytes+sa.WriteBytes) / (1 << 20), "MiB"},
			{"nvmeSpace", float64(inst.NVMe.Used()) / (1 << 20), "MiB"},
			{"sataSpace", float64(inst.SATA.Used()) / (1 << 20), "MiB"},
		}
		if db, ok := inst.Engine.(*core.DB); ok {
			// The performance tier's background bytes by mechanism; the
			// rest of nvmeBg is the capacity tier's index mirror.
			st := db.Stats()
			bg := st.Zone.Bg
			var index uint64 // of sataWrite: index blocks and footers
			for _, l := range st.Levels {
				index += l.IndexBytes
			}
			for _, c := range []struct {
				name  string
				bytes uint64
			}{
				{"index", index},
				{"nvmeBg", nv.BgReadBytes + nv.BgWriteBytes},
				{"demoteRead", bg.DemotionRead},
				{"rebuildRead", bg.RebuildRead}, {"rebuildWrite", bg.RebuildWrite},
				{"promoteWrite", bg.PromotionWrite},
				{"hotEvictRead", bg.HotEvictRead}, {"hotEvictWrite", bg.HotEvictWrite},
			} {
				cells = append(cells, Cell{c.name, float64(c.bytes) / (1 << 20), "MiB"})
			}
		}
		if tree := baselineTree(inst.Engine); tree != nil {
			top, bottom := tree.Levels()
			for l := top; l <= bottom; l++ {
				if _, b := tree.LevelBytes(l); b > 0 {
					cells = append(cells, Cell{fmt.Sprintf("L%d", l), float64(b) / (1 << 20), "MiB"})
				}
			}
		}
		t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
		inst.Engine.Close()
		if progress != nil {
			fmt.Fprintf(progress, "fig11: %s done\n", label)
		}
	}
	return t, nil
}

// baselineTree returns a baseline's LSM tree, or nil for HyperDB, whose
// trees are per partition and whose Stats carry their levels.
func baselineTree(e engine.Engine) *lsm.Tree {
	if b, ok := e.(interface{ LSM() *lsm.Tree }); ok {
		return b.LSM()
	}
	return nil
}

// Figures maps figure ids to their runners.
var Figures = map[string]func(Scale, io.Writer) (*Table, error){
	"fig2":     Fig2,
	"fig3":     Fig3,
	"fig6":     Fig6,
	"fig8":     Fig8,
	"fig9a":    Fig9a,
	"fig9b":    Fig9b,
	"fig9c":    Fig9c,
	"fig10":    Fig10,
	"fig11":    Fig11,
	"ablation": Ablation,
	"hotq":     HotQuality,
}

// FigureOrder is the presentation order.
var FigureOrder = []string{"fig2", "fig3", "fig6", "fig8", "fig9a", "fig9b", "fig9c", "fig10", "fig11", "ablation", "hotq"}

// FormatBytes re-exports the byte formatter for the CLI.
func FormatBytes(n uint64) string { return stats.FormatBytes(n) }
