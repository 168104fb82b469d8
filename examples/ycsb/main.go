// YCSB example: run any of the paper's workloads (A–F) against any of the
// four engines and print throughput and latency percentiles — a one-command
// version of one Figure 8 cell.
//
//	go run ./examples/ycsb -engine hyperdb -workload A -records 100000 -ops 50000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hyperdb/internal/harness"
	"hyperdb/internal/stats"
	"hyperdb/internal/ycsb"
)

func main() {
	engine := flag.String("engine", "hyperdb", "hyperdb | rocksdb | rocksdb-sc | prismdb")
	workload := flag.String("workload", "A", "YCSB workload letter A-F")
	records := flag.Int64("records", 100_000, "records to load")
	ops := flag.Int64("ops", 50_000, "operations to run")
	valueSize := flag.Int("value", 128, "value size in bytes")
	clients := flag.Int("clients", 8, "concurrent clients")
	theta := flag.Float64("theta", -1, "zipfian skew override (0 = uniform)")
	unthrottled := flag.Bool("unthrottled", false, "disable device timing model")
	flag.Parse()

	w, ok := ycsb.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (want A-F)\n", *workload)
		os.Exit(2)
	}
	if *theta >= 0 {
		w = w.WithTheta(*theta)
	}

	cfg := harness.Config{Unthrottled: *unthrottled}
	inst, err := harness.Build(harness.EngineKind(*engine), cfg)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	defer inst.Engine.Close()

	fmt.Printf("loading %d records (%dB values) into %s...\n", *records, *valueSize, inst.Kind.Label())
	if err := harness.Load(inst.Engine, *records, *valueSize, *clients, 7); err != nil {
		log.Fatalf("load: %v", err)
	}

	fmt.Printf("running %d YCSB-%s ops with %d clients...\n", *ops, w.Name, *clients)
	res, err := harness.Run(inst, harness.RunConfig{
		Clients:   *clients,
		Ops:       *ops,
		Workload:  w,
		Records:   *records,
		ValueSize: *valueSize,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Println(res)

	nv := inst.NVMe.Counters().Snapshot()
	sa := inst.SATA.Counters().Snapshot()
	fmt.Printf("NVMe traffic: read=%s write=%s (bg: r=%s w=%s)\n",
		stats.FormatBytes(nv.ReadBytes), stats.FormatBytes(nv.WriteBytes),
		stats.FormatBytes(nv.BgReadBytes), stats.FormatBytes(nv.BgWriteBytes))
	fmt.Printf("SATA traffic: read=%s write=%s (bg: r=%s w=%s)\n",
		stats.FormatBytes(sa.ReadBytes), stats.FormatBytes(sa.WriteBytes),
		stats.FormatBytes(sa.BgReadBytes), stats.FormatBytes(sa.BgWriteBytes))
}
