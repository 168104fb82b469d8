package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb/internal/engine"
	"hyperdb/internal/stats"
	"hyperdb/internal/ycsb"
)

// RunConfig describes one measurement phase.
type RunConfig struct {
	// Clients is the concurrent client count (paper: 8).
	Clients int
	// Ops is the total operation count across clients.
	Ops int64
	// Workload is the YCSB mix.
	Workload ycsb.Workload
	// Records is the loaded dataset size in keys.
	Records int64
	// ValueSize in bytes (paper default 128).
	ValueSize int
	// Seed makes streams deterministic.
	Seed int64
}

func (c *RunConfig) fill() {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 128
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Result is one measurement phase's outcome.
type Result struct {
	Engine     string
	Workload   string
	Ops        int64
	Errors     int64
	Duration   time.Duration
	Throughput float64 // ops per second
	ReadLat    *stats.Histogram
	WriteLat   *stats.Histogram
	ScanLat    *stats.Histogram
	AllLat     *stats.Histogram
}

// Load fills the engine with records keys (indices 0..records-1, keys
// FNV-scrambled) in a uniformly random order, using the given client count,
// then drains background work. This is §4.1's load phase.
func Load(e engine.Engine, records int64, valueSize, clients int, seed int64) error {
	if clients <= 0 {
		clients = 8
	}
	// Random permutation insert order, split among clients.
	perm := rand.New(rand.NewSource(seed)).Perm(int(records))
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	chunk := (len(perm) + clients - 1) / clients
	for c := 0; c < clients; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > len(perm) {
			hi = len(perm)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(ids []int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, id := range ids {
				if err := e.Put(ycsb.Key(int64(id)), ycsb.Value(rng, valueSize)); err != nil {
					errCh <- fmt.Errorf("load: %w", err)
					return
				}
			}
		}(perm[lo:hi], seed+int64(c))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return e.DrainBackground()
}

// Run replays cfg.Ops operations against the engine with concurrent clients
// and returns the measured result. Read misses on keys that exist are
// errors; misses on never-inserted keys are not (workload D/E insert
// streams race with reads of the newest records).
func Run(inst *Instance, cfg RunConfig) (Result, error) {
	cfg.fill()
	e := inst.Engine
	res := Result{
		Engine:   inst.Kind.Label(),
		Workload: cfg.Workload.Name,
		ReadLat:  stats.NewHistogram(),
		WriteLat: stats.NewHistogram(),
		ScanLat:  stats.NewHistogram(),
		AllLat:   stats.NewHistogram(),
	}
	var errs atomic.Int64
	var fatal atomic.Value

	perClient := cfg.Ops / int64(cfg.Clients)
	if perClient == 0 {
		perClient = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			gen := ycsb.NewGenerator(cfg.Workload, cfg.Records, cfg.ValueSize, cfg.Seed*1000+id)
			gen.SetInsertStride(id, int64(cfg.Clients))
			for i := int64(0); i < perClient; i++ {
				op := gen.Next()
				t0 := time.Now()
				var err error
				switch op.Type {
				case ycsb.OpRead:
					_, err = e.Get(op.Key)
					if errors.Is(err, engine.ErrNotFound) {
						err = nil
					}
					res.ReadLat.Record(time.Since(t0))
				case ycsb.OpUpdate:
					err = e.Put(op.Key, op.Value)
					res.WriteLat.Record(time.Since(t0))
				case ycsb.OpInsert:
					err = e.Put(op.Key, op.Value)
					res.WriteLat.Record(time.Since(t0))
				case ycsb.OpScan:
					_, err = e.Scan(op.Key, op.ScanLen)
					res.ScanLat.Record(time.Since(t0))
				case ycsb.OpRMW:
					_, err = e.Get(op.Key)
					if errors.Is(err, engine.ErrNotFound) {
						err = nil
					}
					if err == nil {
						err = e.Put(op.Key, op.Value)
					}
					res.WriteLat.Record(time.Since(t0))
				}
				res.AllLat.Record(time.Since(t0))
				if err != nil {
					errs.Add(1)
					fatal.Store(err)
				}
			}
		}(int64(c))
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Ops = perClient * int64(cfg.Clients)
	res.Errors = errs.Load()
	if res.Duration > 0 {
		res.Throughput = float64(res.Ops) / res.Duration.Seconds()
	}
	if res.Errors > 0 {
		if err, _ := fatal.Load().(error); err != nil {
			return res, fmt.Errorf("harness: %d op errors, last: %w", res.Errors, err)
		}
	}
	return res, nil
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-11s YCSB-%s  %8.0f ops/s  read{p50=%v p99=%v}  write{p50=%v p99=%v}  n=%d err=%d",
		r.Engine, r.Workload, r.Throughput,
		r.ReadLat.Median(), r.ReadLat.P99(),
		r.WriteLat.Median(), r.WriteLat.P99(),
		r.Ops, r.Errors)
}
