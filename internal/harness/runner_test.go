package harness

import (
	"strings"
	"testing"

	"hyperdb/internal/ycsb"
)

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}
	c.fill()
	if c.Clients != 8 || c.ValueSize != 128 || c.Seed == 0 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestResultString(t *testing.T) {
	inst, err := Build(KindHyperDB, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Engine.Close()
	if err := Load(inst.Engine, 1000, 64, 2, 3); err != nil {
		t.Fatal(err)
	}
	res, err := Run(inst, RunConfig{
		Clients: 2, Ops: 500, Workload: ycsb.WorkloadA, Records: 1000, ValueSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"HyperDB", "YCSB-A", "ops/s", "read{", "write{"} {
		if !strings.Contains(s, want) {
			t.Fatalf("result string missing %q: %s", want, s)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	// Two engines loaded with the same seed hold identical data.
	a, _ := Build(KindHyperDB, tinyConfig())
	b, _ := Build(KindHyperDB, tinyConfig())
	defer a.Engine.Close()
	defer b.Engine.Close()
	if err := Load(a.Engine, 2000, 64, 4, 11); err != nil {
		t.Fatal(err)
	}
	if err := Load(b.Engine, 2000, 64, 4, 11); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i += 53 {
		va, ea := a.Engine.Get(ycsb.Key(i))
		vb, eb := b.Engine.Get(ycsb.Key(i))
		if ea != nil || eb != nil || string(va) != string(vb) {
			t.Fatalf("key %d differs across identically seeded loads", i)
		}
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	inst, err := Build(KindHyperDB, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Engine.Close()
	// Workload E scans against an empty store: not an error. But a closed
	// engine is.
	inst.Engine.Close()
	if _, err := Run(inst, RunConfig{
		Clients: 1, Ops: 10, Workload: ycsb.WorkloadA, Records: 10, ValueSize: 8,
	}); err == nil {
		t.Fatal("run against closed engine should fail")
	}
}

func TestTableGetAndPrint(t *testing.T) {
	tbl := &Table{ID: "T", Caption: "c", Rows: []Row{
		{Label: "r1", Cells: []Cell{{"a", 1.5, "x"}, {"b", 2, ""}}},
	}}
	if v, ok := tbl.Get("r1", "a"); !ok || v != 1.5 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := tbl.Get("r1", "zz"); ok {
		t.Fatal("phantom cell")
	}
	if _, ok := tbl.Get("zz", "a"); ok {
		t.Fatal("phantom row")
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	if !strings.Contains(sb.String(), "r1") || !strings.Contains(sb.String(), "a=1.5x") {
		t.Fatalf("print: %s", sb.String())
	}
}
