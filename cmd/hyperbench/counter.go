package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
	"hyperdb/internal/server"
)

// counterConfig parameterises the -workload=counter run.
type counterConfig struct {
	clients  int
	inflight int
	keys     int
	ops      int
	hotPct   int
}

// runCounterWorkload is the VSA-style counter A/B: a served instance takes
// `ops` hot-key increments from `clients` connections (each `inflight`
// deep), once with the server's delta folding and once without, and the
// table contrasts acked throughput, engine write entries, and
// replication-log bytes. It is the interactive twin of BenchmarkMergeCounter
// (merge_bench_test.go) — same workload shape, tunable from flags.
func runCounterWorkload(cfg counterConfig) error {
	fmt.Printf("counter workload: %d ops, %d clients x %d in flight, %d keys (%d%% on the hottest)\n",
		cfg.ops, cfg.clients, cfg.inflight, cfg.keys, cfg.hotPct)
	fmt.Printf("%-10s %10s %12s %14s %14s %12s\n",
		"fold", "acked/s", "ns/op", "entries/op", "logBytes/op", "folded")
	for _, fold := range []bool{true, false} {
		if err := runCounterOnce(cfg, fold); err != nil {
			return err
		}
	}
	return nil
}

func runCounterOnce(cfg counterConfig, fold bool) error {
	rlog := repl.NewLog(repl.LogConfig{})
	db, err := hyperdb.Open(hyperdb.Options{
		Partitions: 4,
		NVMeDevice: device.New(device.NVMeProfile(256 << 20)),
		SATADevice: device.New(device.SATAProfile(1 << 30)),
		CacheBytes: 4 << 20,
		Tee:        rlog,
	})
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{DB: db, OwnDB: true, NoMergeFold: !fold})
	if err != nil {
		db.Close()
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return err
	}
	defer srv.Shutdown()

	keys := make([][]byte, cfg.keys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ctr-%04d", i))
	}
	pool := make([]*client.Client, cfg.clients)
	for i := range pool {
		c, err := client.Dial(client.Options{Addr: addr.String(), Conns: 1})
		if err != nil {
			return err
		}
		defer c.Close()
		pool[i] = c
	}

	acked := make([]atomic.Int64, cfg.keys)
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < cfg.clients; cl++ {
		for p := 0; p < cfg.inflight; p++ {
			wg.Add(1)
			go func(cl, p int) {
				defer wg.Done()
				c := pool[cl]
				rng := rand.New(rand.NewSource(int64(cl*1000 + p)))
				for {
					i := int(next.Add(1)) - 1
					if i >= cfg.ops {
						return
					}
					ki := 0
					if rng.Intn(100) >= cfg.hotPct {
						ki = 1 + rng.Intn(cfg.keys-1)
					}
					if _, err := c.Incr(keys[ki], 1); err != nil {
						failed.Add(1)
					} else {
						acked[ki].Add(1)
					}
				}
			}(cl, p)
		}
	}
	wg.Wait()
	dur := time.Since(t0)
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("counter workload: %d increments failed", n)
	}

	// Exactness before numbers: every committed counter must equal its
	// acked model.
	check, err := client.Dial(client.Options{Addr: addr.String(), Conns: 1})
	if err != nil {
		return err
	}
	defer check.Close()
	for i, k := range keys {
		want := acked[i].Load()
		if want == 0 {
			continue
		}
		got, err := check.Incr(k, 0)
		if err != nil || got != want {
			return fmt.Errorf("counter %s: committed %d (err %v), acked %d", k, got, err, want)
		}
	}

	st := srv.Stats()
	fmt.Printf("%-10v %10.0f %12.0f %14.3f %14.2f %12d\n",
		fold,
		float64(cfg.ops)/dur.Seconds(),
		float64(dur.Nanoseconds())/float64(cfg.ops),
		float64(st.WriteOps.Load())/float64(cfg.ops),
		float64(rlog.Bytes())/float64(cfg.ops),
		st.MergeFolded.Load())
	return nil
}

func counterUsage() {
	fmt.Fprintln(os.Stderr, "usage: hyperbench -workload=counter [-clients N] [-inflight N] [-counter-keys N] [-counter-ops N] [-hot PCT]")
	os.Exit(2)
}
