package harness

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hyperdb"
	"hyperdb/internal/baseline/prismish"
	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
	"hyperdb/internal/ycsb"
)

var update = flag.Bool("update", false, "rewrite testdata/stepped.golden from this run")

// steppedCase is one figure cell driven the stepped way: the figure's own
// devices and engine options, with workers off.
type steppedCase struct {
	name    string
	kind    EngineKind
	cfg     Config
	mut     func(*hyperdb.Options) // HyperDB option change (ablation rows)
	records int64
	value   int
	work    ycsb.Workload
	ops     int64
}

// steppedCases lists the byte-count cells of fig 2 (PrismDB), fig 3 (both
// baselines), fig 9b (HyperDB at six value sizes), fig 11 (all four
// engines) and the ablation, at scale s. Fig 9b's PrismDB cells are left
// out for time: stepped, the baseline rewrites its whole L1 after every
// 62-object migration, and its 16 B cell alone costs 13 s.
func steppedCases(s Scale) []steppedCase {
	var cs []steppedCase
	add := func(name string, kind EngineKind, cfg Config, records int64, value int, w ycsb.Workload) {
		cfg.DisableBackground = true
		cs = append(cs, steppedCase{name: name, kind: kind, cfg: cfg, records: records, value: value, work: w, ops: s.Ops})
	}
	add("fig2 PrismDB", KindPrismDB, s.config(), s.Records, s.ValueSize, workloadU)
	for _, kind := range []EngineKind{KindRocksDB, KindPrismDB} {
		cfg := s.config()
		cfg.Ratio, cfg.FileSize = 4, 256<<10
		add("fig3 "+kind.Label(), kind, cfg, s.Records, s.ValueSize, workloadU)
	}
	for _, vs := range []int{16, 64, 128, 256, 512, 1024} {
		sc := s
		sc.ValueSize = vs
		sc.Records = s.Records * int64(s.ValueSize+24) / int64(vs+24)
		add(fmt.Sprintf("fig9b HyperDB value=%dB", vs), KindHyperDB, sc.config(), sc.Records, vs, ycsb.WorkloadA)
	}
	sc := s
	sc.ValueSize = 1024
	sc.Records = max(s.Records*int64(s.ValueSize+24)/(1024+24)*2, 4096)
	for _, kind := range AllKinds {
		add("fig11 "+kind.Label(), kind, sc.config(), sc.Records, sc.ValueSize, ycsb.WorkloadA.WithTheta(0))
	}
	for _, v := range []struct {
		name string
		mut  func(*hyperdb.Options)
	}{
		{"baseline", func(o *hyperdb.Options) {}},
		{"depth=1(no-preempt)", func(o *hyperdb.Options) { o.CompactionDepth = 1 }},
		{"depth=3", func(o *hyperdb.Options) { o.CompactionDepth = 3 }},
		{"tclean=0.25", func(o *hyperdb.Options) { o.TClean = 0.25 }},
		{"tclean=0.90", func(o *hyperdb.Options) { o.TClean = 0.90 }},
		{"no-hot-zone", func(o *hyperdb.Options) { o.HotZoneFraction = 0.01 }},
		{"no-index-mirror", func(o *hyperdb.Options) { o.DisableIndexMirror = true }},
	} {
		add("ablation "+v.name, KindHyperDB, s.config(), s.Records, s.ValueSize, ycsb.WorkloadA)
		cs[len(cs)-1].mut = v.mut
	}
	return cs
}

// run builds the case's engine, loads it and runs its workload on one
// goroutine with a background step every 64 operations, drains, and writes
// what the figure counts to w.
func (c steppedCase) run(w io.Writer) error {
	var inst *Instance
	var err error
	if c.mut != nil {
		cfg := c.cfg
		cfg.Fill()
		inst, err = buildHyper(cfg, c.mut)
	} else {
		inst, err = Build(c.kind, c.cfg)
	}
	if err != nil {
		return err
	}
	e := inst.Engine
	defer e.Close()
	n := 0
	step := func() error {
		if n++; n%64 == 0 {
			return e.BackgroundStep()
		}
		return nil
	}
	rng := rand.New(rand.NewSource(7))
	for _, id := range rand.New(rand.NewSource(7)).Perm(int(c.records)) {
		if err := e.Put(ycsb.Key(int64(id)), ycsb.Value(rng, c.value)); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if err := step(); err != nil {
			return err
		}
	}
	if err := e.DrainBackground(); err != nil {
		return err
	}
	gen := ycsb.NewGenerator(c.work, c.records, c.value, 42)
	for i := int64(0); i < c.ops; i++ {
		op := gen.Next()
		switch op.Type {
		case ycsb.OpRead:
			_, err = e.Get(op.Key)
		case ycsb.OpUpdate, ycsb.OpInsert:
			err = e.Put(op.Key, op.Value)
		default:
			err = fmt.Errorf("op type %v not in the stepped workloads", op.Type)
		}
		if err != nil && !errors.Is(err, engine.ErrNotFound) {
			return err
		}
		if err := step(); err != nil {
			return err
		}
	}
	if err := e.DrainBackground(); err != nil {
		return err
	}

	fmt.Fprintf(w, "== %s: %d records of %d B, %d ops of YCSB-%s\n", c.name, c.records, c.value, c.ops, c.work.Name)
	for _, d := range []*device.Device{inst.NVMe, inst.SATA} {
		s := d.Counters().Snapshot()
		fmt.Fprintf(w, "%s: read=%d/%d write=%d/%d bgRead=%d/%d bgWrite=%d/%d used=%d\n",
			d.Profile().Name, s.ReadOps, s.ReadBytes, s.WriteOps, s.WriteBytes,
			s.BgReadOps, s.BgReadBytes, s.BgWriteOps, s.BgWriteBytes, d.Used())
	}
	var live, file int64
	level := func(l, tables int, lv, fl int64, r, wr, compactions, rewrites uint64) {
		live, file = live+lv, file+fl
		if tables > 0 || wr > 0 {
			fmt.Fprintf(w, "L%d: tables=%d live=%d file=%d compactRead=%d compactWrite=%d compactions=%d rewrites=%d\n",
				l, tables, lv, fl, r, wr, compactions, rewrites)
		}
	}
	switch db := e.(type) {
	case *core.DB:
		st := db.Stats()
		fmt.Fprintf(w, "zone: %+v\n", st.Zone)
		for _, l := range st.Levels {
			level(l.Level, l.Tables, l.LiveBytes, l.FileBytes, l.CompactReads, l.CompactWrite, l.Compactions, l.FullRewrites)
		}
	case *prismish.DB:
		fmt.Fprintf(w, "slabs: %+v\n", db.Stats())
	}
	if tree := baselineTree(e); tree != nil {
		top, bottom := tree.Levels()
		for l := top; l <= bottom; l++ {
			lv, fl := tree.LevelBytes(l)
			tr := tree.Traffic(l)
			level(l, tree.TableCount(l), lv, fl, tr.ReadBytes.Load(), tr.WriteBytes.Load(), tr.Compactions.Load(), tr.FullRewrites.Load())
		}
	}
	amp := 1.0
	if live > 0 {
		amp = float64(file) / float64(live)
	}
	fmt.Fprintf(w, "spaceAmp=%.6f\n", amp)
	return nil
}

// TestSteppedFiguresMatchGolden drives the byte-count figures' cells
// deterministically — unthrottled devices, workers off, one goroutine, a
// background step every 64 operations — and compares the device counters,
// ledgers, zone and slab statistics, level bytes and space amplification
// with testdata/stepped.golden, byte for byte. A change that should leave
// the paper's byte counts alone shows an empty diff; one that moves them
// rewrites the file with -update, and the diff shows which cells moved. Two
// runs of one tree print the same bytes, under -race too, so a diff here is
// never noise.
func TestSteppedFiguresMatchGolden(t *testing.T) {
	s := DefaultScale().Mult(0.1)
	s.Throttled = false
	// Each case is its own engine on its own goroutine, so running them side
	// by side leaves every case's bytes as they are.
	cs := steppedCases(s)
	outs := make([]bytes.Buffer, len(cs))
	errs := make([]error, len(cs))
	next := make(chan int, len(cs))
	for i := range cs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = cs[i].run(&outs[i])
			}
		}()
	}
	wg.Wait()
	var out bytes.Buffer
	for i, c := range cs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		out.Write(outs[i].Bytes())
	}
	path := filepath.Join("testdata", "stepped.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		shown := 0
		for i := 0; i < max(len(gl), len(wl)) && shown < 20; i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
				shown++
			}
		}
		t.Fatalf("stepped figures differ from %s (rewrite it with -update if the change should move them)", path)
	}
}
