package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		sz := w.sizes(10, 0.01)
		a := generate(w, sz.records, sz.ops, 7)
		b := generate(w, sz.records, sz.ops, 7)
		c := generate(w, sz.records, sz.ops, 8)
		if a.hash != b.hash {
			t.Errorf("%s: same seed, different op streams: %x vs %x", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream %x", w.name, a.hash)
		}
		if got := a.totalCalls(); got != sz.ops {
			t.Errorf("%s: %d calls generated, want %d", w.name, got, sz.ops)
		}
		for c, stream := range a.streams {
			for _, o := range stream {
				if o.kind() != kInsert && w.clients > 1 && int(o.id())%w.clients != c {
					t.Fatalf("%s: client %d was given record %d of another client's parity", w.name, c, o.id())
				}
			}
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {25, 2}, {99, 4.96}, {100, 5}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) in Python.
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// Noise has no direction, and a middle set can be the outlier.
	for _, medians := range [][]float64{{100, 125}, {125, 100}, {110, 125, 100}} {
		if got := apart(medians); got != 0.25 {
			t.Errorf("apart(%v) = %v, want 0.25", medians, got)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: spRun, parent: -1, start: 0, end: 100},
		{name: spPass, parent: 0, start: 10, end: 40},
		{name: spPass, parent: 0, start: 30, end: 50},  // overlaps the first child
		{name: spPass, parent: 0, start: 90, end: 120}, // sticks out of the parent
		{name: spMigrationStep, parent: 1, start: 10, end: 25},
	}
	want := []int64{100 - 40 - 10, 30 - 15, 20, 30, 15}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

func TestRotationStartsOnePartitionLaterEachPass(t *testing.T) {
	if got, want := rotation(6, 8), []int{6, 7, 0, 1, 2, 3, 4, 5}; !equalInts(got, want) {
		t.Errorf("rotation(6, 8) = %v, want %v", got, want)
	}
	d := &bgDriver{}
	var starts []int
	for i := 0; i < 10; i++ {
		starts = append(starts, rotation(d.start, partitions)[0])
		d.start = (d.start + 1) % partitions
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1}; !equalInts(starts, want) {
		t.Errorf("pass starts = %v, want %v", starts, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpaceIsSampledOverTheSecondHalf(t *testing.T) {
	for _, n := range []int{64, 1000, 4200, 350_000} {
		samples := 0
		for i := 0; i < n; i++ {
			if spaceDue(i, n) {
				samples++
				if i < n/2 {
					t.Fatalf("n=%d: space sampled at call %d, in the first half", n, i)
				}
			}
		}
		if samples != spaceSamples {
			t.Errorf("n=%d: %d space samples, want %d", n, samples, spaceSamples)
		}
	}
}

// TestCheckerCountsEveryWrongAnswer feeds the checker a missing, a stale and
// a corrupt value and short, unsorted and gapped scans; each must count as
// one failed op of its own kind.
func TestCheckerCountsEveryWrongAnswer(t *testing.T) {
	w, _ := workloadByName("tiered-read")
	in := generate(w, 256, 64, 1)
	chk := newChecker(in)
	good := make([][]byte, 256)
	for id := range good {
		good[id] = make([]byte, valueSize)
		stamp(good[id], uint32(id), 3)
		chk.versions[id] = 3
	}
	stale := make([]byte, valueSize)
	stamp(stale, 5, 2)
	corrupt := append([]byte(nil), good[5]...)
	corrupt[40] ^= 1

	var tl tally
	point := []struct {
		v    []byte
		want failure
	}{
		{good[5], ok}, {nil, failMissing}, {stale, failStale}, {corrupt, failCorrupt},
		{good[6], failWrongKey}, {good[5][:100], failCorrupt},
	}
	for _, c := range point {
		if got := tl.note(chk.value(5, c.v)); got != c.want {
			t.Errorf("value: got %s, want %s", failureNames[got], failureNames[c.want])
		}
	}

	// The ids in key order, as a correct scan would return them.
	byKey := make([]uint32, 0, 256)
	for _, k := range in.sorted {
		for id := 0; id < 256; id++ {
			if binary.BigEndian.Uint64(in.key(uint32(id))) == k {
				byKey = append(byKey, uint32(id))
			}
		}
	}
	scan := func(ids []uint32, vals map[uint32][]byte) failure {
		return tl.note(chk.scan(in.key(byKey[10]), 8, len(ids), func(i int) ([]byte, []byte) {
			if v, ok := vals[ids[i]]; ok {
				return in.key(ids[i]), v
			}
			return in.key(ids[i]), good[ids[i]]
		}))
	}
	full := byKey[10:18]
	swapped := append([]uint32(nil), full...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	gapped := append(append([]uint32(nil), full[:4]...), byKey[15:19]...)
	oldValue := make([]byte, valueSize)
	stamp(oldValue, full[1], 2)
	scans := []struct {
		name string
		got  failure
		want failure
	}{
		{"full", scan(full, nil), ok},
		{"short", scan(full[:7], nil), failScanShort},
		{"unsorted", scan(swapped, nil), failScanOrder},
		{"gap", scan(gapped, nil), failScanGap},
		{"stale pair", scan(full, map[uint32][]byte{full[1]: oldValue}), failStale},
		{"end of keyspace", tl.note(chk.scan(in.key(byKey[254]), 8, 2, func(i int) ([]byte, []byte) {
			return in.key(byKey[254+i]), good[byKey[254+i]]
		})), ok},
	}
	for _, c := range scans {
		if c.got != c.want {
			t.Errorf("scan %s: got %s, want %s", c.name, failureNames[c.got], failureNames[c.want])
		}
	}
	if tl.attempted != 12 || tl.failed() != 9 {
		t.Errorf("tally: %d attempted, %d failed; want 12 and 9", tl.attempted, tl.failed())
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test holds the
// program to.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs all four workloads at 1 % of
// their size, untraced and traced, and checks that every metric
// BENCHMARK.json names comes out with its unit, that ops were attempted and
// that none failed.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEndDefs) || len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range endToEndDefs {
		if e := spec.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the program has %+v", i, e, d)
		}
	}
	dir := t.TempDir()
	for _, wl := range spec.Workloads {
		w, err := workloadByName(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wl.Why != w.why {
			t.Errorf("%s: BENCHMARK.json and the program give different reasons", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := runOne(config{workload: wl.Name, seed: 3, seconds: 10, scale: 0.01, trace: trace,
				traceOut: filepath.Join(dir, wl.Name+".json")})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if rep.meta.Attempted == 0 || rep.meta.Failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed (%s)", wl.Name, trace, rep.meta.Attempted, rep.meta.Failed, rep.meta.Failures)
			}
			got := map[string]metric{}
			for _, m := range append(rep.endToEnd, rep.perLayer...) {
				got[m.Name] = m
			}
			if !trace {
				for _, e := range spec.EndToEnd {
					m, ok := got[e.Name]
					// At 1 % the resident dataset fits the DRAM cache and
					// no read reaches a device; everything else is positive
					// at any size.
					positive := m.Value > 0 || (e.Name == "dev_reads_per_key" && m.Value == 0)
					if !ok || m.Unit != e.Unit || !positive || math.IsInf(m.Value, 0) {
						t.Errorf("%s: end-to-end metric %s [%s] missing or not positive: %+v", wl.Name, e.Name, e.Unit, m)
					}
				}
				continue
			}
			for _, e := range spec.PerLayer {
				m, ok := got[e.Name]
				if !ok || m.Unit != e.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: per-layer metric %s [%s] missing or not a number: %+v", wl.Name, e.Name, e.Unit, m)
				}
			}
			if sum := got["core.fg_share"].Value + got["core.migration_share"].Value + got["core.compaction_share"].Value; sum > 1 {
				t.Errorf("%s: foreground + migration + compaction shares sum to %v", wl.Name, sum)
			}
			if got["bench.trace_overhead"].Value <= 0 {
				t.Errorf("%s: bench.trace_overhead = %v", wl.Name, got["bench.trace_overhead"].Value)
			}
			if w.inline && got["core.bg_passes"].Value == 0 {
				t.Errorf("%s: the inline background driver never ran a pass", wl.Name)
			}
			if w.name == "tiered-read" && got["workers.ops_per_s"].Value == 0 {
				t.Errorf("%s: the workers.* probe is missing", wl.Name)
			}
			if _, err := os.Stat(rep.meta.TraceFile); err != nil {
				t.Errorf("%s: no trace file: %v", wl.Name, err)
			}
		}
	}
}
