package harness

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"hyperdb"
	"hyperdb/internal/engine"
	"hyperdb/internal/ycsb"
)

// tinyConfig keeps engine tests fast and deterministic.
func tinyConfig() Config {
	return Config{
		NVMeCapacity:      8 << 20,
		SATACapacity:      512 << 20,
		Unthrottled:       true,
		BackgroundThreads: 2,
		Partitions:        4,
		CacheBytes:        2 << 20,
		FileSize:          256 << 10,
	}
}

// TestEnginesAgree drives every engine through the one engine.Engine
// contract with the same seeded op stream — single writes, batches (a
// duplicate key and a delete in each), point and multi reads, background
// steps in between, a drain at the end — and checks every answer against one
// model, so all four give identical answers.
func TestEnginesAgree(t *testing.T) {
	const records = 3000
	const valueSize = 100
	never := []byte("never-written")

	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			inst, err := Build(kind, tinyConfig())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer inst.Engine.Close()
			e := inst.Engine
			model := map[string][]byte{}
			put := func(k, v []byte) {
				t.Helper()
				if err := e.Put(k, v); err != nil {
					t.Fatalf("put %x: %v", k, err)
				}
				model[string(k)] = v
			}
			del := func(k []byte) {
				t.Helper()
				if err := e.Delete(k); err != nil {
					t.Fatalf("delete %x: %v", k, err)
				}
				delete(model, string(k))
			}
			check := func(k, got []byte, err error) {
				t.Helper()
				want, ok := model[string(k)]
				switch {
				case !ok && !errors.Is(err, engine.ErrNotFound):
					t.Fatalf("key %x: expected engine.ErrNotFound, got v=%d err=%v", k, len(got), err)
				case !ok && !errors.Is(err, hyperdb.ErrNotFound):
					t.Fatalf("key %x: %v is not hyperdb.ErrNotFound", k, err)
				case ok && (err != nil || !bytes.Equal(got, want)):
					t.Fatalf("key %x: got %q err=%v, want %q", k, got, err, want)
				}
			}

			// Deterministic load (value = key repeated), overwrite a slice
			// of keys, delete a few.
			for i := int64(0); i < records; i++ {
				k := ycsb.Key(i)
				put(k, bytes.Repeat(k, valueSize/len(k)))
			}
			for i := int64(0); i < records; i += 3 {
				k := ycsb.Key(i)
				put(k, append([]byte("v2-"), k...))
			}
			for i := int64(1); i < records; i += 17 {
				del(ycsb.Key(i))
			}

			rng := rand.New(rand.NewSource(20))
			key := func() []byte { return ycsb.Key(rng.Int63n(records)) }
			val := func() []byte { return ycsb.Value(rng, 16+rng.Intn(valueSize)) }
			for i := 0; i < 4000; i++ {
				switch r := rng.Intn(10); {
				case r < 3:
					put(key(), val())
				case r < 4:
					del(key())
				case r < 6:
					k := key()
					v, err := e.Get(k)
					check(k, v, err)
				case r < 8:
					// Slice order is apply order: the second write to dup
					// wins, and gone is deleted after it was written.
					dup, gone := key(), key()
					ops := []engine.BatchOp{
						{Key: dup, Value: val()},
						{Key: gone, Value: val()},
						{Key: key(), Value: val()},
						{Key: dup, Value: val()},
						{Key: gone, Delete: true},
					}
					if err := e.WriteBatch(ops); err != nil {
						t.Fatalf("batch: %v", err)
					}
					for _, op := range ops {
						if op.Delete {
							delete(model, string(op.Key))
						} else {
							model[string(op.Key)] = op.Value
						}
					}
				default:
					ks := [][]byte{key(), never, key(), key()}
					vs, err := e.MultiGet(ks)
					if err != nil || len(vs) != len(ks) {
						t.Fatalf("multiget: %d values, err=%v", len(vs), err)
					}
					for j, k := range ks {
						if want := model[string(k)]; !bytes.Equal(vs[j], want) || (want == nil) != (vs[j] == nil) {
							t.Fatalf("multiget %x: got %q, want %q", k, vs[j], want)
						}
					}
				}
				if i%64 == 0 {
					if err := e.BackgroundStep(); err != nil {
						t.Fatalf("background step: %v", err)
					}
				}
			}
			if err := e.DrainBackground(); err != nil {
				t.Fatalf("drain: %v", err)
			}

			for i := int64(0); i < records; i++ {
				k := ycsb.Key(i)
				v, err := e.Get(k)
				check(k, v, err)
			}
			live := make([]string, 0, len(model))
			for k := range model {
				live = append(live, k)
			}
			sort.Strings(live)
			for _, start := range [][]byte{nil, ycsb.Key(77), []byte(live[len(live)-3])} {
				at := sort.SearchStrings(live, string(start))
				want := live[at:min(at+200, len(live))]
				got, err := e.Scan(start, 200)
				if err != nil || len(got) != len(want) {
					t.Fatalf("scan from %x: %d results, err=%v, want %d", start, len(got), err, len(want))
				}
				for j, kv := range got {
					if string(kv.Key) != want[j] || !bytes.Equal(kv.Value, model[want[j]]) {
						t.Fatalf("scan from %x: result %d = %x, want %x", start, j, kv.Key, want[j])
					}
				}
			}

			// Only HyperDB has a merge operator; the baselines refuse the op.
			err = e.WriteBatch([]engine.BatchOp{{Key: []byte("ctr"), Merge: true, Delta: 1}})
			if (err == nil) != (kind == KindHyperDB) {
				t.Fatalf("merge op: err=%v", err)
			}
		})
	}
}

// TestRunSmoke exercises the Load+Run pipeline on each engine.
func TestRunSmoke(t *testing.T) {
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			inst, err := Build(kind, tinyConfig())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer inst.Engine.Close()
			if err := Load(inst.Engine, 2000, 128, 4, 7); err != nil {
				t.Fatalf("load: %v", err)
			}
			res, err := Run(inst, RunConfig{
				Clients:   4,
				Ops:       4000,
				Workload:  ycsb.WorkloadA,
				Records:   2000,
				ValueSize: 128,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Throughput <= 0 {
				t.Fatalf("no throughput: %+v", res)
			}
			if res.ReadLat.Count() == 0 || res.WriteLat.Count() == 0 {
				t.Fatalf("missing latency samples: %s", res)
			}
		})
	}
}

// TestScanAgree verifies scans return identical ordered results everywhere.
func TestScanAgree(t *testing.T) {
	var ref []engine.KV
	for _, kind := range AllKinds {
		inst, err := Build(kind, tinyConfig())
		if err != nil {
			t.Fatalf("%s build: %v", kind, err)
		}
		e := inst.Engine
		for i := int64(0); i < 2000; i++ {
			k := ycsb.Key(i)
			if err := e.Put(k, append([]byte("s-"), k...)); err != nil {
				t.Fatalf("%s put: %v", kind, err)
			}
		}
		if err := e.DrainBackground(); err != nil {
			t.Fatalf("%s drain: %v", kind, err)
		}
		got, err := e.Scan(ycsb.Key(77), 64)
		if err != nil {
			t.Fatalf("%s scan: %v", kind, err)
		}
		if len(got) != 64 {
			t.Fatalf("%s scan returned %d", kind, len(got))
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
				t.Fatalf("%s scan out of order at %d", kind, i)
			}
		}
		if ref == nil {
			ref = got
		} else {
			for i := range got {
				if !bytes.Equal(got[i].Key, ref[i].Key) || !bytes.Equal(got[i].Value, ref[i].Value) {
					t.Fatalf("%s scan[%d] differs from reference", kind, i)
				}
			}
		}
		e.Close()
	}
}
