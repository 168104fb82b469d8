// End-to-end counter-coalescing benchmark: a wire server under a hot-key
// INCR workload (VSA-style counter aggregation), A/B between the server's
// delta folding and the unfolded baseline. Clients hammer a small, skewed
// counter keyspace over real TCP with deep pipelining; each connection's
// request cycle folds the same-key deltas it holds into one net-delta
// batch entry (a cycle never spans connections), so the metric that
// matters is logical acked writes per physical engine call — each folded
// op is a WAL record and a replication-log op that never existed. CI runs
// these with -benchtime=1x as a smoke test; BENCH_merge.json records the
// measured fold ratios.
package hyperdb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
	"hyperdb/internal/server"
)

const (
	mergeBenchKeys     = 64 // counter keyspace: small and hot, the fold's home turf
	mergeBenchHotFrac  = 50 // percent of increments hitting the single hottest key
	mergeBenchPipeline = 16 // concurrent in-flight increments per connection
)

// BenchmarkMergeCounter measures acked increments/sec and the coalescing
// ratio at 1/8/32 client connections, folding on vs off. ns/op is per
// acked INCR; logicalWrites/dbCall is the headline ratio (1.0 means every
// increment paid its own engine write).
func BenchmarkMergeCounter(b *testing.B) {
	for _, clients := range []int{1, 8, 32} {
		for _, fold := range []bool{true, false} {
			b.Run(fmt.Sprintf("clients=%d/fold=%v", clients, fold), func(b *testing.B) {
				benchMergeCounter(b, clients, fold)
			})
		}
	}
}

func benchMergeCounter(b *testing.B, clients int, fold bool) {
	// The log tee measures replication/WAL bytes the workload generates:
	// folded deltas ship as one op, so log bytes drop with the fold ratio.
	rlog := repl.NewLog(repl.LogConfig{})
	db, err := hyperdb.Open(hyperdb.Options{
		Partitions: 4,
		NVMeDevice: device.New(device.NVMeProfile(256 << 20)),
		SATADevice: device.New(device.SATAProfile(1 << 30)),
		CacheBytes: 4 << 20,
		Tee:        rlog,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, OwnDB: true, NoMergeFold: !fold})
	if err != nil {
		db.Close()
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		b.Fatal(err)
	}
	defer srv.Shutdown()

	keys := make([][]byte, mergeBenchKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ctr-%03d", i))
	}
	pool := make([]*client.Client, clients)
	for i := range pool {
		c, err := client.Dial(client.Options{Addr: addr.String(), Conns: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		pool[i] = c
	}

	var acked [mergeBenchKeys]atomic.Int64 // model: every acked delta, per key
	var next atomic.Int64
	var failed atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		for p := 0; p < mergeBenchPipeline; p++ {
			wg.Add(1)
			go func(cl, p int) {
				defer wg.Done()
				c := pool[cl]
				rng := rand.New(rand.NewSource(int64(cl*100 + p)))
				const grab = 16
				for {
					lo := int(next.Add(grab)) - grab
					if lo >= b.N {
						return
					}
					hi := lo + grab
					if hi > b.N {
						hi = b.N
					}
					for i := lo; i < hi; i++ {
						ki := 0
						if rng.Intn(100) >= mergeBenchHotFrac {
							ki = 1 + rng.Intn(mergeBenchKeys-1)
						}
						if _, err := c.Incr(keys[ki], 1); err != nil {
							failed.Add(1)
						} else {
							acked[ki].Add(1)
						}
					}
				}
			}(cl, p)
		}
	}
	wg.Wait()
	b.StopTimer()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d increments failed", n)
	}
	// Exactness: the committed counters must equal the acked model even
	// though folding rewrote how the deltas were batched.
	check, err := client.Dial(client.Options{Addr: addr.String(), Conns: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer check.Close()
	for i, k := range keys {
		want := acked[i].Load()
		if want == 0 {
			continue
		}
		got, err := check.Incr(k, 0)
		if err != nil || got != want {
			b.Fatalf("counter %s: %d (err %v), want %d", k, got, err, want)
		}
	}

	st := srv.Stats()
	b.ReportMetric(st.LogicalWritesPerDBCall(), "logicalWrites/dbCall")
	if b.N > 0 {
		// Direct fold effect: engine batch entries (≙ WAL records ≙
		// replication ops) submitted per acked increment. 1.0 = unfolded.
		b.ReportMetric(float64(st.WriteOps.Load())/float64(b.N), "engineEntries/op")
		b.ReportMetric(float64(rlog.Bytes())/float64(b.N), "replLogB/op")
	}
	b.ReportMetric(float64(st.MergeFolded.Load()), "folded")
}
