package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hyperdb/internal/client"
	"hyperdb/internal/stats"
)

// BenchmarkServedRoundTrip times one acked request over loopback TCP, per
// traffic shape: closed-loop callers with a connection each (every request
// is alone on its connection, a cycle of one) and one connection shared by
// 16 callers (requests pipeline, and a cycle holds what arrived together).
// Half the calls are GETs and half PUTs of a 128-byte value over 4096 keys.
// ns/op is wall time per request across all callers; allocs/op counts client
// and server together, as both run in this process.
func BenchmarkServedRoundTrip(b *testing.B) {
	for _, tc := range []struct {
		name           string
		conns, callers int
	}{
		{"closed-loop/conns=1", 1, 1},
		{"closed-loop/conns=2", 2, 2},
		{"closed-loop/conns=8", 8, 8},
		{"pipelined/conns=1/depth=16", 1, 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const nkeys = 4096
			env := newTestEnv(b, func(c *Config) { c.Logf = nil })
			key := func(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i%nkeys)) }
			value := make([]byte, 128)
			cls := make([]*client.Client, tc.conns)
			for i := range cls {
				cls[i] = dialTest(b, env, 1)
			}
			for i := 0; i < nkeys; i++ {
				if err := cls[0].Put(key(i), value); err != nil {
					b.Fatalf("load: %v", err)
				}
			}
			st := env.srv.Stats()
			cycles, reqs := st.Drains.Load(), st.DrainedRequests.Load()
			b.ReportAllocs()
			timeCallers(b, tc.callers, func(w, i int) error {
				cl := cls[w%tc.conns]
				k := key(i * 7919)
				if i%2 == 0 {
					_, err := cl.Get(k)
					return err
				}
				return cl.Put(k, value)
			})
			b.ReportMetric(float64(st.DrainedRequests.Load()-reqs)/float64(st.Drains.Load()-cycles), "req/cycle")
		})
	}
}

// BenchmarkLoopbackPingPong is the floor under BenchmarkServedRoundTrip's
// closed-loop rows: the same two closed-loop callers exchanging frames of a
// served GET's size with a goroutine that only echoes — the net package and
// the kernel, none of this repository's serving code. A latency tail that
// shows here too is not the server's.
func BenchmarkLoopbackPingPong(b *testing.B) {
	const callers, reqLen, respLen = 2, 32, 160
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				req, resp := make([]byte, reqLen), make([]byte, respLen)
				for {
					if _, err := io.ReadFull(nc, req); err != nil {
						return
					}
					if _, err := nc.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	conns := make([]net.Conn, callers)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
	}
	timeCallers(b, callers, func(w, _ int) error {
		var buf [respLen]byte
		if _, err := conns[w].Write(buf[:reqLen]); err != nil {
			return err
		}
		_, err := io.ReadFull(conns[w], buf[:])
		return err
	})
}

// timeCallers splits b.N calls of op(caller, i) over concurrent closed-loop
// callers, timing each, and reports the median, the 99.9th percentile and
// the share of calls slower than a millisecond beside the usual ns/op mean.
func timeCallers(b *testing.B, callers int, op func(w, i int) error) {
	lats := make([][]time.Duration, callers)
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < b.N; i += callers {
				t0 := time.Now()
				if err := op(w, i); err != nil {
					errs <- fmt.Errorf("caller %d op %d: %w", w, i, err)
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	var all []time.Duration
	slow := 0
	for _, l := range lats {
		all = append(all, l...)
		for _, d := range l {
			if d > time.Millisecond {
				slow++
			}
		}
	}
	p := stats.ExactPercentiles(all, 0.5, 0.999)
	b.ReportMetric(float64(p[0].Nanoseconds())/1e3, "p50-us")
	b.ReportMetric(float64(p[1].Nanoseconds())/1e3, "p99.9-us")
	b.ReportMetric(100*float64(slow)/float64(len(all)), "%>1ms")
}
