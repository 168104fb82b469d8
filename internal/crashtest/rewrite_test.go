package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperdb/internal/device"
	"hyperdb/internal/engine"
)

// tableCoord names a capacity-tier table slot; generations of one slot
// replace each other.
type tableCoord struct{ part, level, seg int }

// tableGens maps every table slot on the device to the generations present.
func tableGens(sata *device.Device) map[tableCoord][]uint64 {
	out := map[tableCoord][]uint64{}
	for _, name := range sata.List() {
		var c tableCoord
		var gen uint64
		if _, err := fmt.Sscanf(name, "p%d-L%d-S%d-G%d.sst", &c.part, &c.level, &c.seg, &gen); err == nil {
			out[c] = append(out[c], gen)
		}
	}
	return out
}

// rewriteRun replays trace against a fresh hyperdb engine up to (not
// including) op stop, tracking acked state; stop < 0 replays nothing.
func rewriteRun(t *testing.T, f Factory, trace []op, stop int) (engine.Engine, Config, map[string]string) {
	t.Helper()
	cfg := Config{
		NVMe: device.New(device.UnthrottledProfile("nvme", f.NVMeCap)),
		SATA: device.New(device.UnthrottledProfile("sata", f.SATACap)),
	}
	eng, err := f.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string]string{}
	for i := 0; i < stop; i++ {
		applyOp(t, eng, trace[i], acked)
	}
	return eng, cfg, acked
}

func applyOp(t *testing.T, eng engine.Engine, o op, acked map[string]string) {
	t.Helper()
	var err error
	switch o.kind {
	case opPut:
		if err = eng.Put([]byte(o.key), []byte(o.value)); err == nil {
			acked[o.key] = o.value
		}
	case opDelete:
		if err = eng.Delete([]byte(o.key)); err == nil {
			delete(acked, o.key)
		}
	case opStep:
		err = eng.BackgroundStep()
	}
	if err != nil {
		t.Fatalf("%s: %v", o, err)
	}
}

// TestRewriteCrashAtEveryWrite finds a background step in which a merge
// rewrites a table as its next generation (the merge-time full compaction),
// then replays the workload once per write op of that step, on either
// device, failing that write and cutting power, and once more cutting power
// just after the step. Every time, recovery must hold all acked data and
// keep exactly one generation of the rewritten table: the old one while the
// new one's build had not returned, the new one after, never neither and
// never both.
func TestRewriteCrashAtEveryWrite(t *testing.T) {
	f := Factories()[0]
	if f.Name != "hyperdb" {
		t.Fatalf("first factory is %q", f.Name)
	}
	trace := genTrace(rand.New(rand.NewSource(4242)), 1500, 6000)

	// Clean pass: locate the step and count its writes.
	eng, cfg, acked := rewriteRun(t, f, trace, 0)
	step := -1
	var slot tableCoord
	var oldGen, newGen uint64
	var nvmeWrites, sataWrites int64
	for i, o := range trace {
		before := tableGens(cfg.SATA)
		n0, s0 := cfg.NVMe.Counters().WriteOps.Load(), cfg.SATA.Counters().WriteOps.Load()
		applyOp(t, eng, o, acked)
		if o.kind != opStep {
			continue
		}
		for c, gens := range tableGens(cfg.SATA) {
			if was := before[c]; len(was) == 1 && len(gens) == 1 && gens[0] > was[0] {
				step, slot, oldGen, newGen = i, c, was[0], gens[0]
			}
		}
		if step >= 0 {
			nvmeWrites = int64(cfg.NVMe.Counters().WriteOps.Load() - n0)
			sataWrites = int64(cfg.SATA.Counters().WriteOps.Load() - s0)
			break
		}
	}
	eng.Close()
	if step < 0 {
		t.Fatal("no step of the trace rewrote a table generation")
	}
	t.Logf("step %d rewrites p%d-L%d-S%d G%d -> G%d in %d SATA + %d NVMe writes",
		step, slot.part, slot.level, slot.seg, oldGen, newGen, sataWrites, nvmeWrites)

	kept := map[uint64]int{}
	cut := func(onSATA bool, n int64) {
		eng, cfg, acked := rewriteRun(t, f, trace, step)
		dev, name, writes := cfg.NVMe, "NVMe", nvmeWrites
		if onSATA {
			dev, name, writes = cfg.SATA, "SATA", sataWrites
		}
		when := fmt.Sprintf("%s write %d of step %d", name, n, step)
		dev.InjectFaults(device.FaultPlan{Seed: n, FailWriteAfter: n, TornWrites: n%2 == 0})
		if err := eng.BackgroundStep(); !errors.Is(err, device.ErrInjected) && (err != nil || n <= writes) {
			t.Fatalf("%s of %d: step returned %v", when, writes, err)
		}
		cfg.NVMe.PowerCut()
		cfg.SATA.PowerCut()
		dev.ClearFaults()
		reng, err := f.Open(cfg)
		if err != nil {
			t.Fatalf("%s: recover: %v", when, err)
		}
		defer reng.Close()
		gens := tableGens(cfg.SATA)[slot]
		if len(gens) != 1 || (gens[0] != oldGen && gens[0] != newGen) {
			t.Fatalf("%s: recovered generations %v of the rewritten table, want exactly one of G%d, G%d", when, gens, oldGen, newGen)
		}
		kept[gens[0]]++
		for k, want := range acked {
			if v, err := reng.Get([]byte(k)); err != nil || string(v) != want {
				t.Fatalf("%s: acked %s = %q, %v", when, k, trunc(string(v)), err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := reng.BackgroundStep(); err != nil {
				t.Fatalf("%s: step after recovery: %v", when, err)
			}
		}
		for k, want := range acked {
			if v, err := reng.Get([]byte(k)); err != nil || string(v) != want {
				t.Fatalf("%s: acked %s after post-recovery steps = %q, %v", when, k, trunc(string(v)), err)
			}
		}
	}
	// Write writes+1 never happens: the step completes and the cut follows.
	for n := int64(1); n <= sataWrites+1; n++ {
		cut(true, n)
	}
	for n := int64(1); n <= nvmeWrites; n++ {
		cut(false, n)
	}
	if kept[oldGen] == 0 || kept[newGen] != 1 {
		t.Fatalf("cuts kept generations %v, want G%d for every failed write and G%d once", kept, oldGen, newGen)
	}
}
