// Command bench is the repository's one benchmark: four workloads, nine
// end-to-end metrics, and a traced second mode that attributes them to
// layers. See README.md in this directory.
//
//	bash bench/run.sh -workload tiered-write -seed 1            # one workload
//	bash bench/run.sh -workload all                             # all four
//	bash bench/run.sh -workload served-rw -trace 1              # per-layer metrics
//	bash bench/run.sh -repeat 2x5                               # noise check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	traceOut string
}

// setUps is how many times an untraced run sets up; setup_s is the median.
const setUps = 3

// meta is recorded with every output, text and JSON.
type meta struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	Scale      float64   `json:"scale"`
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	InputsHash string    `json:"inputs_hash"`
	Records    int       `json:"records"`
	Calls      int       `json:"calls"`
	WallS      float64   `json:"wall_s"`
	GenS       float64   `json:"gen_s"`
	SetupS     []float64 `json:"setup_s"`
	MeasuredS  float64   `json:"measured_s"`
	P50Samples int       `json:"p50_samples"`
	BgPasses   uint64    `json:"bg_passes"`
	Attempted  uint64    `json:"attempted"`
	Failed     uint64    `json:"failed"`
	Failures   string    `json:"failures,omitempty"`
	TraceFile  string    `json:"trace_file,omitempty"`
}

// report is the outcome of one run of one workload.
type report struct {
	meta     meta
	endToEnd []metric // untraced run
	perLayer []metric // every run: engine counters; traced run: spans and probes too
}

func main() {
	var cfg config
	var trace int
	var repeat string
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs; the only source of randomness")
	flag.IntVar(&cfg.seconds, "seconds", 10, "target length of the measured phase; scales the op count, which stays a function of this flag alone")
	flag.IntVar(&trace, "trace", 0, "1 repeats the run with spans recorded and prints the per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink dataset, op count and tier together (smoke tests)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run writes its spans to (default .bench_build/trace-<workload>-<seed>.json)")
	flag.StringVar(&repeat, "repeat", "", "SETSxRUNS: run that many sets of runs of every workload back to back and compare their medians")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds < 1 || cfg.scale <= 0 || cfg.scale > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	if repeat != "" {
		os.Exit(runRepeat(cfg, repeat, os.Stdout))
	}
	exit := 0
	for _, name := range workloadNames(cfg.workload) {
		c := cfg
		c.workload = name
		rep, err := runOne(c)
		if err != nil {
			// No result line: the driver must not mistake a broken run for a
			// measurement.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		if rep.meta.Failed != 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}

// runOne generates the inputs of one workload, sets up, measures, verifies
// and computes the metrics.
func runOne(cfg config) (*report, error) {
	runtime.GOMAXPROCS(maxProcs)
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	sz := w.sizes(cfg.seconds, cfg.scale)
	begin := time.Now()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(begin, 1<<18)
	}
	root := rec.begin(spRun, -1)

	g := rec.begin(spGenerate, root)
	in := generate(w, sz.records, sz.ops, cfg.seed)
	rec.end(g)
	genS := time.Since(begin).Seconds()
	cal := newCalibrator()

	rep := &report{meta: meta{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: cfg.scale,
		GitSHA: gitSHA(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		InputsHash: fmt.Sprintf("%016x", in.hash), Records: sz.records, Calls: in.totalCalls(), GenS: genS,
	}}
	ls := layerSet{"bench.gen_s": genS}

	// The traced run first measures once untraced, for bench.trace_overhead;
	// the untraced run sets up setUps times and measures on the last.
	var x *instance
	var untracedOps float64
	if cfg.trace {
		ref, err := setUp(w, sz, in, false, nil, -1)
		if err != nil {
			return nil, err
		}
		m, err := ref.measure(cal, -1)
		ref.release()
		if err != nil {
			return nil, err
		}
		untracedOps = m.opsPerSec()
		if x, err = setUp(w, sz, in, false, rec, root); err != nil {
			return nil, err
		}
		rep.meta.SetupS = []float64{x.setup.Seconds()}
	} else {
		for k := 0; k < setUps; k++ {
			if x != nil {
				x.release()
			}
			if x, err = setUp(w, sz, in, false, nil, -1); err != nil {
				return nil, err
			}
			rep.meta.SetupS = append(rep.meta.SetupS, x.setup.Seconds())
		}
	}
	defer x.close()

	m, err := x.measure(cal, root)
	if err != nil {
		return nil, err
	}
	total := x.load
	total.add(&m.tally)
	sweep := x.sweep(root)
	total.add(&sweep)
	rep.meta.MeasuredS, rep.meta.P50Samples, rep.meta.BgPasses = m.wall.Seconds(), len(m.lat), m.passes
	rep.meta.Attempted, rep.meta.Failed = total.attempted, total.failed()
	var kinds []string
	for f := failure(1); f < nFailures; f++ {
		if total.failures[f] != 0 {
			kinds = append(kinds, fmt.Sprintf("%s=%d", failureNames[f], total.failures[f]))
		}
	}
	rep.meta.Failures = strings.Join(kinds, " ")

	ls.engineLayers(x, m)
	ls["calib.alu_us"], ls["calib.mem_us"] = median(cal.alu), median(cal.ram)
	if cfg.trace {
		ls["bench.trace_overhead"] = m.opsPerSec() / untracedOps
		ls.spanLayers(rec, m)
		if err := ls.probes(x, sz, m, cal, rec, root); err != nil {
			return nil, err
		}
		rec.end(root)
	}
	rep.perLayer = ls.metrics()

	if !cfg.trace {
		values := endToEnd(x, m, rep.meta.SetupS)
		// Heap is read last, with everything the benchmark itself holds
		// released: inputs, model, latency samples, calibration memory.
		*in, *x.chk, *cal, m.lat = inputs{}, checker{}, calibrator{}, nil
		values["live_heap_mb"] = liveHeapMiB()
		for _, d := range endToEndDefs {
			rep.endToEnd = append(rep.endToEnd, metric{d.name, values[d.name], d.unit})
		}
	}
	rep.meta.WallS = time.Since(begin).Seconds()

	if cfg.trace {
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		}
		rep.meta.TraceFile = path
		mj, _ := json.Marshal(rep.meta)
		if err := rec.write(path, string(mj)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return rep, nil
}

// probes runs the single-layer probes of the traced run.
func (ls layerSet) probes(x *instance, sz sizes, m *measured, cal *calibrator, rec *recorder, root int32) error {
	ls.probeHotness(x, rec, root)
	if err := ls.probeSemiSST(x, rec, root); err != nil {
		return err
	}
	if err := ls.probeCompress(x, rec, root); err != nil {
		return err
	}
	if x.w.served {
		if err := ls.probeWire(x, rec, root); err != nil {
			return err
		}
		fresh, err := setUp(x.w, sz, x.in, false, nil, -1)
		if err != nil {
			return err
		}
		engine, err := replayEngine(fresh, rec, root)
		fresh.release()
		if err != nil {
			return fmt.Errorf("engine replay: %w", err)
		}
		ls["server.engine_us_per_req"] = float64(engine.Nanoseconds()) / 1e3
		ls["server.stack_us_per_req"] = m.cpuPerOp() - ls["server.engine_us_per_req"]
	}
	if x.w.workersProbe {
		return ls.probeWorkers(x.w, sz, x.in, cal, rec, root)
	}
	return nil
}

// gitSHA reads the checked-out commit from .git without running git; the
// driver's checkouts are not repositories, where it reads "unknown".
func gitSHA() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for i := 0; i < 3; i++ {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			name := strings.TrimPrefix(ref, "ref: ")
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			if packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if strings.HasSuffix(line, " "+name) {
						return strings.Fields(line)[0]
					}
				}
			}
			return "unknown"
		}
		dir = filepath.Dir(dir)
	}
	return "unknown"
}

// print writes the human-readable report, then the meta line, then — last —
// the one JSON object the driver reads.
func (r *report) print(out io.Writer) {
	m := r.meta
	fmt.Fprintf(out, "# hyperdb bench  workload=%s seed=%d seconds=%d trace=%v scale=%g\n", m.Workload, m.Seed, m.Seconds, m.Trace, m.Scale)
	fmt.Fprintf(out, "# git=%s go=%s gomaxprocs=%d nproc=%d inputs=%s records=%d calls=%d\n",
		m.GitSHA, m.GoVersion, m.GOMAXPROCS, m.NProc, m.InputsHash, m.Records, m.Calls)
	fmt.Fprintf(out, "# wall: total=%.2fs generate=%.2fs setup=%.2fs measured=%.2fs\n", m.WallS, m.GenS, m.SetupS, m.MeasuredS)
	fmt.Fprintf(out, "# ops: attempted=%d failed=%d %s\n", m.Attempted, m.Failed, m.Failures)
	fmt.Fprintf(out, "# p50_us is the median of %d timed calls; background passes since Open: %d\n", m.P50Samples, m.BgPasses)
	if m.TraceFile != "" {
		fmt.Fprintf(out, "# spans: %s\n", m.TraceFile)
	}
	for _, e := range r.endToEnd {
		fmt.Fprintf(out, "end_to_end  %-36s %14.6g %s\n", e.Name, e.Value, e.Unit)
	}
	for _, e := range r.perLayer {
		fmt.Fprintf(out, "per_layer   %-36s %14.6g %s\n", e.Name, e.Value, e.Unit)
	}
	mj, _ := json.Marshal(m)
	fmt.Fprintf(out, "#meta %s\n", mj)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{m.Failed == 0, m.Attempted, m.Failed, map[string]value{}}
	contract := r.endToEnd
	if m.Trace {
		contract = r.perLayer
	}
	for _, e := range contract {
		result.Metrics[e.Name] = value{e.Value, e.Unit}
	}
	rj, _ := json.Marshal(result)
	fmt.Fprintf(out, "%s\n", rj)
}
