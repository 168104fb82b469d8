// Command hyperctl inspects a live HyperDB: it loads a configurable
// workload into a fresh instance over simulated devices and dumps the
// engine's internal state — zones per partition, LSM level occupancy,
// per-tier traffic, cache efficiency — the view an operator would use to
// understand where data lives and what the background tasks are doing.
// It also speaks the wire protocol to a running hyperd.
//
// Local subcommands (in-process instance):
//
//	hyperctl demo    [-records N] [-ops N] [-skew T]   load + inspect
//	hyperctl devices                                    print device profiles
//	hyperctl trace   [-seconds S]                       bandwidth timeline
//	hyperctl recover [-records N]                       crash + recovery demo
//
// Remote subcommands (against hyperd, all take -addr):
//
//	hyperctl ping
//	hyperctl put  <key> <value>
//	hyperctl get  <key>
//	hyperctl mget <key>...
//	hyperctl del  <key>
//	hyperctl incr <key> [delta]    counter merge; delta defaults to 1
//	hyperctl scan [-limit N] [start]
//	hyperctl stats
//	hyperctl repl status   replication role, log window, per-follower lag
//	hyperctl ryw           live read-your-writes probe through a session
//	hyperctl badframe      send deliberately malformed bytes (protocol test)
//
// put/get/mget/del/scan also take session flags: -policy primary|bounded|any
// routes reads through follower addresses given with -followers, carrying
// the session token (seed it across invocations with -token); the serving
// node and updated token print to stderr. `ryw` loops put-then-get through
// one session and fails on any stale read.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hyperdb"
	"hyperdb/internal/device"
	"hyperdb/internal/stats"
	"hyperdb/internal/ycsb"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "demo":
		demo(os.Args[2:])
	case "devices":
		devices()
	case "trace":
		trace(os.Args[2:])
	case "recover":
		recoverDemo(os.Args[2:])
	case "ping", "put", "get", "mget", "del", "incr", "scan", "stats", "badframe":
		remote(os.Args[1], os.Args[2:])
	case "ryw":
		rywCmd(os.Args[2:])
	case "repl":
		replCmd(os.Args[2:])
	default:
		usage()
	}
}

// recoverDemo loads a dataset, simulates a crash (abandons the instance
// without any shutdown), recovers from the devices, and verifies the data.
func recoverDemo(args []string) {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	records := fs.Int64("records", 100_000, "records to load before the crash")
	fs.Parse(args)

	nvme := device.New(device.NVMeProfile(8 << 20))
	sata := device.New(device.SATAProfile(2 << 30))
	opts := hyperdb.Options{NVMeDevice: nvme, SATADevice: sata, Partitions: 4}

	db, err := hyperdb.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("writing %d records across both tiers...\n", *records)
	rng := rand.New(rand.NewSource(9))
	for i := int64(0); i < *records; i++ {
		if err := db.Put(ycsb.Key(i), ycsb.Value(rng, 128)); err != nil {
			fmt.Fprintln(os.Stderr, "put:", err)
			os.Exit(1)
		}
	}
	st := db.Stats()
	fmt.Printf("pre-crash: %d objects in NVMe zones, %d migrations to SATA\n",
		st.Zone.Objects, st.Zone.Migrations)
	db.Close()
	fmt.Println("simulated crash (in-memory state discarded)")

	t0 := time.Now()
	re, err := hyperdb.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reopen:", err)
		os.Exit(1)
	}
	defer re.Close()
	fmt.Printf("recovered in %v (slot-file scan + semi-SSTable reopen)\n", time.Since(t0))

	missing := 0
	for i := int64(0); i < *records; i += 97 {
		if _, err := re.Get(ycsb.Key(i)); err != nil {
			missing++
		}
	}
	if missing > 0 {
		fmt.Printf("VERIFY FAILED: %d sampled keys missing\n", missing)
		os.Exit(1)
	}
	fmt.Println("verify: all sampled keys present")
	rst := re.Stats()
	fmt.Printf("post-recovery: %d objects in NVMe zones across %d zones\n",
		rst.Zone.Objects, rst.Zone.Zones)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hyperctl <demo|devices|trace|recover|ping|put|get|mget|del|incr|scan|stats|repl|ryw|badframe> [flags]")
	os.Exit(2)
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	records := fs.Int64("records", 200_000, "records to load")
	ops := fs.Int64("ops", 100_000, "YCSB-B ops to run after load")
	skew := fs.Float64("skew", 0.99, "zipfian theta (0 = uniform)")
	nvme := fs.Int64("nvme", 16<<20, "NVMe capacity bytes")
	fs.Parse(args)

	db, err := hyperdb.Open(hyperdb.Options{
		NVMeCapacity: *nvme,
		SATACapacity: 4 << 30,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()

	fmt.Printf("loading %d records...\n", *records)
	rng := rand.New(rand.NewSource(42))
	gen := ycsb.NewGenerator(ycsb.WorkloadB.WithTheta(*skew), *records, 128, 42)
	for i := int64(0); i < *records; i++ {
		if err := db.Put(ycsb.Key(i), ycsb.Value(rng, 128)); err != nil {
			fmt.Fprintln(os.Stderr, "put:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("running %d YCSB-B ops (theta %.2f)...\n", *ops, *skew)
	for i := int64(0); i < *ops; i++ {
		op := gen.Next()
		switch op.Type {
		case ycsb.OpRead:
			db.Get(op.Key)
		default:
			db.Put(op.Key, op.Value)
		}
	}
	db.DrainBackground()
	fmt.Println("\n=== engine state ===")
	fmt.Print(db.Stats())
}

func devices() {
	for _, p := range []device.Profile{device.NVMeProfile(960 << 30), device.SATAProfile(960 << 30)} {
		fmt.Printf("%s: page=%dB sector=%dB readLat=%v writeLat=%v readBW=%s/s writeBW=%s/s channels=%d seqDiscount=%d\n",
			p.Name, p.PageSize, p.SectorSize, p.ReadLatency, p.WriteLatency,
			stats.FormatBytes(uint64(p.ReadBandwidth)), stats.FormatBytes(uint64(p.WriteBandwidth)),
			p.Channels, p.SeqDiscount)
	}
}

func trace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	seconds := fs.Int("seconds", 5, "trace duration")
	fs.Parse(args)

	db, err := hyperdb.Open(hyperdb.Options{NVMeCapacity: 8 << 20, SATACapacity: 1 << 30})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()

	nvmeSampler := stats.NewBandwidthSampler(db.NVMe().Counters(), 200*time.Millisecond)
	sataSampler := stats.NewBandwidthSampler(db.SATA().Counters(), 200*time.Millisecond)

	stop := time.After(time.Duration(*seconds) * time.Second)
	gen := ycsb.NewGenerator(ycsb.WorkloadA, 1<<20, 128, 1)
	i := int64(0)
loop:
	for {
		select {
		case <-stop:
			break loop
		default:
		}
		op := gen.Next()
		if op.Type == ycsb.OpRead {
			db.Get(op.Key)
		} else {
			db.Put(op.Key, op.Value)
		}
		i++
	}
	fmt.Printf("ran %d ops\n", i)
	fmt.Println("t(ms)  nvmeR(MiB/s) nvmeW  sataR  sataW")
	nv := nvmeSampler.Stop()
	sa := sataSampler.Stop()
	for j := 0; j < len(nv) && j < len(sa); j++ {
		fmt.Printf("%6d %9.1f %6.1f %6.1f %6.1f\n",
			(j+1)*200,
			nv[j].ReadBps/(1<<20), nv[j].WriteBps/(1<<20),
			sa[j].ReadBps/(1<<20), sa[j].WriteBps/(1<<20))
	}
}
