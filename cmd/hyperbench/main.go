// Command hyperbench regenerates every table and figure from the paper's
// evaluation (§4) on the simulated heterogeneous devices.
//
// Usage:
//
//	hyperbench [-scale F] [-quick] [figure ...]
//
// With no figure arguments, every figure runs in order. Figure names:
// fig2 fig3 fig6 fig8 fig9a fig9b fig9c fig10 fig11.
//
// -workload=counter bypasses the figure map and runs the served counter
// A/B instead: hot-key INCRs through a wire server with its per-cycle
// delta folding on vs off (see merge_bench_test.go for the recorded
// benchmark form):
//
//	hyperbench -workload=counter -clients 32 -inflight 16 -counter-ops 200000
//
// -workload=compress runs the capacity-tier codec A/B instead (the
// LevelDB+Snappy runbook shape): compressible values loaded past the NVMe
// tier, contrasting on-disk bytes, compaction traffic and read latency
// with the block codec on vs off. -compress=on|off picks one side; for
// figure runs the same flag applies the codec to every engine:
//
//	hyperbench -workload=compress [-compress on|off] [-compress-keys 20000]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hyperdb/internal/harness"
)

func main() {
	scaleF := flag.Float64("scale", 1.0, "multiply dataset and op counts by this factor")
	quick := flag.Bool("quick", false, "tiny unthrottled run (CI smoke): traffic shapes only, no timing fidelity")
	verbose := flag.Bool("v", false, "print per-run progress")
	jsonOut := flag.Bool("json", false, "emit figures as JSON instead of text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file")
	workload := flag.String("workload", "", "alternative workload instead of paper figures: counter, compress")
	clients := flag.Int("clients", 32, "counter workload: client connections")
	inflight := flag.Int("inflight", 16, "counter workload: pipelined increments per connection")
	counterKeys := flag.Int("counter-keys", 64, "counter workload: counter keyspace size")
	counterOps := flag.Int("counter-ops", 200_000, "counter workload: total increments per A/B side")
	hotPct := flag.Int("hot", 50, "counter workload: percent of increments on the hottest key")
	compressArg := flag.String("compress", "", "capacity-tier block codec: on or off (figures: applies to every engine; -workload=compress: picks one A/B side, empty runs both)")
	compressKeys := flag.Int("compress-keys", 20_000, "compress workload: loaded keys")
	compressVal := flag.Int("compress-value", 1024, "compress workload: value size in bytes")
	compressReads := flag.Int("compress-reads", 4_000, "compress workload: measured point reads")
	flag.Parse()
	switch *compressArg {
	case "", "on", "off":
	default:
		fmt.Fprintf(os.Stderr, "hyperbench: -compress must be on or off, got %q\n", *compressArg)
		os.Exit(2)
	}
	switch *workload {
	case "":
	case "compress":
		if flag.NArg() != 0 || *compressKeys < 1 || *compressVal < 16 || *compressReads < 1 {
			compressUsage()
		}
		sides := []string{"off", "on"}
		if *compressArg != "" {
			sides = []string{*compressArg}
		}
		if err := runCompressWorkload(compressConfig{
			keys:  *compressKeys,
			value: *compressVal,
			reads: *compressReads,
			sides: sides,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "hyperbench:", err)
			os.Exit(1)
		}
		return
	case "counter":
		if flag.NArg() != 0 || *clients < 1 || *inflight < 1 || *counterKeys < 2 ||
			*counterOps < 1 || *hotPct < 0 || *hotPct > 100 {
			counterUsage()
		}
		if err := runCounterWorkload(counterConfig{
			clients:  *clients,
			inflight: *inflight,
			keys:     *counterKeys,
			ops:      *counterOps,
			hotPct:   *hotPct,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "hyperbench:", err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "hyperbench: unknown -workload %q (want counter or compress)\n", *workload)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1000) // one sample per µs blocked
		defer writeProfile("block", *blockProfile)
	}

	scale := harness.DefaultScale().Mult(*scaleF)
	if *quick {
		scale = harness.DefaultScale().Mult(0.1)
		scale.Throttled = false
	}
	scale.Compress = *compressArg

	figs := flag.Args()
	if len(figs) == 0 {
		figs = harness.FigureOrder
	}

	var progress *os.File
	if *verbose {
		progress = os.Stderr
	}

	for _, name := range figs {
		fn, ok := harness.Figures[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; available: %v\n", name, harness.FigureOrder)
			os.Exit(2)
		}
		table, err := fn(scale, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		if *jsonOut {
			b, err := table.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Stdout.Write(b)
			fmt.Println()
		} else {
			table.Fprint(os.Stdout)
		}
	}
}

// writeProfile dumps a named runtime profile (mutex, block) to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if p := pprof.Lookup(name); p != nil {
		if err := p.WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}
