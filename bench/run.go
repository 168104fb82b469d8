package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/core"
	"hyperdb/internal/server"
	"hyperdb/internal/wire"
)

// spaceSamples is how many times the second half of the measured phase is
// sampled for space_amp. An end-point lands before or after a full
// compaction by luck; the mean over the half does not.
const spaceSamples = 32

// calibrateEvery is the foreground-call stride of the calibration pair.
const calibrateEvery = 20_000

// stallNs is the Put duration above which the call counts as stalled: the
// engine's inline putStalled path demotes a zone before the write returns.
const stallNs = int64(time.Millisecond)

// Settling the production workers: idle means settleTicks polls in a row,
// each two worker ticks long, saw no background device op.
const (
	settlePoll    = 4 * time.Millisecond
	settleTicks   = 4
	settleTimeout = 30 * time.Second
)

// instance is one opened, loaded and quiesced engine, plus the serving
// stack when the workload is served.
type instance struct {
	w   *workload
	in  *inputs
	db  *hyperdb.DB
	drv *bgDriver // nil when the production workers are on
	srv *server.Server
	cls []*client.Client
	chk *checker
	// userBytes is key+value of every acked put since Open.
	userBytes uint64
	// live is the number of records that exist.
	live  int
	load  tally
	setup time.Duration
	rec   *recorder
}

// setUp is what setup_s times: Open, load, quiesce, and Listen + Dial when
// served. workers opens with the production background workers whatever
// the workload says.
func setUp(w *workload, sz sizes, in *inputs, workers bool, rec *recorder, parent int32) (*instance, error) {
	x := &instance{w: w, in: in, chk: newChecker(in), rec: rec}
	start := time.Now()
	sp := rec.begin(spSetup, parent)
	defer rec.end(sp)

	s := rec.begin(spOpen, sp)
	db, err := hyperdb.Open(w.options(sz, workers))
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	x.db = db
	if w.inline && !workers {
		x.drv = newBgDriver(db, rec)
	}

	load := rec.begin(spLoad, sp)
	if x.drv != nil {
		x.drv.parent = load
	}
	buf := make([]byte, valueSize)
	for id := uint32(0); id < uint32(in.loaded); id++ {
		stamp(buf, id, 1)
		if x.load.note(errFailure(db.Put(in.key(id), buf))) == ok {
			x.chk.versions[id] = 1
			x.userBytes += recordBytes
			x.live++
		}
		if x.drv != nil {
			if err := x.drv.afterCall(); err != nil {
				x.close()
				return nil, fmt.Errorf("background pass during load: %w", err)
			}
		}
	}
	rec.end(load)
	if err := x.quiesce(sp); err != nil {
		x.close()
		return nil, err
	}

	if w.served {
		s := rec.begin(spListenDial, sp)
		err := x.serve()
		rec.end(s)
		if err != nil {
			x.close()
			return nil, err
		}
	}
	x.setup = time.Since(start)
	return x, nil
}

func (x *instance) serve() error {
	srv, err := server.New(server.Config{DB: x.db})
	if err != nil {
		return err
	}
	x.srv = srv
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for c := 0; c < x.w.clients; c++ {
		cl, err := client.Dial(client.Options{Addr: addr.String(), Conns: 1})
		if err != nil {
			return err
		}
		x.cls = append(x.cls, cl)
	}
	return nil
}

// quiesce settles the background: passes until one moves nothing under the
// inline driver; with the production workers on, a wait until they have
// been idle for several of their 2 ms ticks. The gated workloads that keep
// the workers stay below the high watermark, so the workers' only work is
// the zone rebuilds (SplitZone) the load provokes, and it must not leak
// into the measured phase.
func (x *instance) quiesce(parent int32) error {
	s := x.rec.begin(spQuiesce, parent)
	defer x.rec.end(s)
	if x.drv == nil {
		bg := func() uint64 {
			n, s := x.db.NVMe().Counters().Snapshot(), x.db.SATA().Counters().Snapshot()
			return n.BgReadOps + n.BgWriteOps + s.BgReadOps + s.BgWriteOps
		}
		deadline := time.Now().Add(settleTimeout)
		for prev, quiet := bg(), 0; quiet < settleTicks; {
			if time.Now().After(deadline) {
				return fmt.Errorf("quiesce: background workers still busy after %v", settleTimeout)
			}
			time.Sleep(settlePoll)
			cur := bg()
			if cur == prev {
				quiet++
			} else {
				quiet = 0
			}
			prev = cur
		}
		return nil
	}
	x.drv.parent = s
	if err := x.drv.quiesce(); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	return nil
}

func (x *instance) close() {
	for _, cl := range x.cls {
		cl.Close()
	}
	if x.srv != nil {
		x.srv.Shutdown()
	}
	if x.db != nil {
		x.db.Close()
	}
}

// errFailure maps an engine error to a failed op; any error counts.
func errFailure(err error) failure {
	if err != nil {
		return failError
	}
	return ok
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Latencies are stored one uint32 per call: kind in the top 3 bits, and the
// duration in nanoseconds below, capped at 0.53 s.
const latMask = 1<<idBits - 1

func packLat(k kind, ns int64) uint32 {
	if ns > latMask {
		ns = latMask
	}
	return uint32(k)<<idBits | uint32(ns)
}

// measured is what one measured phase produced.
type measured struct {
	calls int
	// wall and cpu span the whole phase: every foreground call, the inline
	// background passes between them and the final quiesce. Calibration
	// samples are taken out.
	wall, cpu time.Duration
	lat       []uint32
	tally     tally
	lookups   uint64 // keys looked up: Get calls + MultiGet keys + Scan pairs
	space     []float64
	before    core.Stats
	after     core.Stats
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	passes    uint64 // background passes since Open
	// from/to bound the phase on the recorder's clock, quiesce included.
	from, to int64
	srvStats *server.Stats
}

func (m *measured) opsPerSec() float64 { return float64(m.calls) / m.wall.Seconds() }

func (m *measured) cpuPerOp() float64 { return float64(m.cpu.Nanoseconds()) / 1e3 / float64(m.calls) }

// loopState is the per-client state of a measured loop.
type loopState struct {
	lat     []uint32
	tally   tally
	lookups uint64
	user    uint64
	inserts int
	// calWall and calCPU are the time calibration samples took inside the
	// loop; they are not the program's.
	calWall, calCPU time.Duration
	err             error
}

// servedCalibration is how many calibration pairs bracket a served phase on
// each side: two client goroutines cannot both stand still for a sample in
// the middle of it.
const servedCalibration = 8

// measure runs the measured phase: the whole op stream, closed-loop, one
// goroutine per client, then the final quiesce.
func (x *instance) measure(cal *calibrator, parent int32) (*measured, error) {
	m := &measured{calls: x.in.totalCalls()}
	states := make([]*loopState, len(x.in.streams))
	for c := range states {
		states[c] = &loopState{lat: make([]uint32, 0, x.in.perClient)}
	}
	clock := x.rec
	if clock == nil {
		clock = newRecorder(time.Now(), 0)
	}
	if x.w.served {
		cal.sample(servedCalibration)
	}

	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.before = x.db.Stats()
	sp := x.rec.begin(spMeasure, parent)
	m.from = clock.now()
	wall0, cpu0 := time.Now(), cpuTime()

	if x.w.served {
		var wg sync.WaitGroup
		recs := make([]*recorder, len(states))
		for c := range states {
			recs[c] = x.rec.fork(x.in.perClient/keepEvery + 16)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				x.servedLoop(c, states[c], m, clock, recs[c], sp)
			}(c)
		}
		wg.Wait()
		for _, child := range recs {
			x.rec.merge(child)
		}
	} else {
		x.embeddedLoop(states[0], m, clock, cal, sp)
	}
	for _, st := range states {
		if st.err != nil {
			return nil, st.err
		}
	}
	if x.drv != nil {
		// The final quiesce is part of the measured phase: background work
		// the ops caused is paid for inside ops_per_s, not after it.
		if err := x.quiesce(sp); err != nil {
			return nil, err
		}
	}
	m.wall, m.cpu = time.Since(wall0), cpuTime()-cpu0
	m.to = clock.now()
	x.rec.end(sp)
	m.after = x.db.Stats()
	runtime.ReadMemStats(&m.mem1)
	if x.w.served {
		cal.sample(servedCalibration)
		m.srvStats = x.srv.Stats()
	}
	if x.drv != nil {
		m.passes = x.drv.passes
	}
	for _, st := range states {
		m.wall, m.cpu = m.wall-st.calWall, m.cpu-st.calCPU
		m.lat = append(m.lat, st.lat...)
		m.tally.add(&st.tally)
		m.lookups += st.lookups
		x.userBytes += st.user
		x.live += st.inserts
	}
	return m, nil
}

// sampleSpace appends one space_amp sample: bytes allocated on both tiers
// over the bytes of live user data.
func (x *instance) sampleSpace(m *measured, live int) {
	used := x.db.NVMe().Used() + x.db.SATA().Used()
	m.space = append(m.space, float64(used)/float64(live*recordBytes))
}

// spaceDue reports whether call i (0-based, of n) is a sampling point: the
// second half of the phase, cut into spaceSamples equal strides.
func spaceDue(i, n int) bool {
	half := n / 2
	stride := (n - half) / spaceSamples
	if stride < 1 {
		stride = 1
	}
	return i >= half && (i-half)%stride == stride-1 && (i-half)/stride < spaceSamples
}

// embeddedLoop drives hyperdb.DB directly from one goroutine.
func (x *instance) embeddedLoop(st *loopState, m *measured, clock *recorder, cal *calibrator, sp int32) {
	db, in, chk, rec := x.db, x.in, x.chk, x.rec
	if x.drv != nil {
		x.drv.parent = sp
	}
	buf := make([]byte, valueSize)
	stream := in.streams[0]
	var kvs []hyperdb.KV
	pair := func(i int) ([]byte, []byte) { return kvs[i].Key, kvs[i].Value }
	for i, o := range stream {
		id, k := o.id(), o.kind()
		key := in.key(id)
		var f failure
		var t0, t1 int64
		switch k {
		case kGet:
			t0 = clock.now()
			v, err := db.Get(key)
			t1 = clock.now()
			f = pointFailure(chk, id, v, err, hyperdb.ErrNotFound)
			st.lookups++
			rec.call(spGet, sp, uint32(i), t0, t1)
		case kUpdate, kInsert:
			version := chk.versions[id] + 1
			stamp(buf, id, version)
			t0 = clock.now()
			err := db.Put(key, buf)
			t1 = clock.now()
			if f = errFailure(err); f == ok {
				chk.versions[id] = version
				st.user += recordBytes
				if k == kInsert {
					st.inserts++
				}
			}
			rec.call(spPut, sp, uint32(i), t0, t1)
		case kScan:
			var err error
			t0 = clock.now()
			kvs, err = db.Scan(key, scanLen)
			t1 = clock.now()
			if f = errFailure(err); f == ok {
				f = chk.scan(key, scanLen, len(kvs), pair)
			}
			st.lookups += uint64(len(kvs))
			rec.call(spScan, sp, uint32(i), t0, t1)
		}
		st.tally.note(f)
		st.lat = append(st.lat, packLat(k, t1-t0))
		if x.drv != nil {
			if st.err = x.drv.afterCall(); st.err != nil {
				return
			}
		}
		if spaceDue(i, len(stream)) {
			x.sampleSpace(m, x.live+st.inserts)
		}
		if i%calibrateEvery == calibrateEvery-1 {
			w0, c0 := time.Now(), cpuTime()
			s := rec.begin(spCalibrate, sp)
			cal.sample(1)
			rec.end(s)
			st.calWall, st.calCPU = st.calWall+time.Since(w0), st.calCPU+cpuTime()-c0
		}
	}
}

// pointFailure judges a point read: notFound is the layer's "absent" error,
// which the checker treats as a nil value; any other error fails the op.
func pointFailure(chk *checker, id uint32, v []byte, err, notFound error) failure {
	if err != nil {
		if !errors.Is(err, notFound) {
			return failError
		}
		v = nil
	} else if v == nil {
		v = []byte{}
	}
	return chk.value(id, v)
}

// servedLoop drives one client.Client from one goroutine; a call is a
// request. Client 0 also takes the space samples.
func (x *instance) servedLoop(c int, st *loopState, m *measured, clock *recorder, rec *recorder, sp int32) {
	cl, in, chk := x.cls[c], x.in, x.chk
	stream := in.streams[c]
	bufs := make([]byte, multiLen*valueSize)
	keys := make([][]byte, multiLen)
	batch := make([]wire.BatchOp, multiLen)
	call := 0
	for i := 0; i < len(stream); call++ {
		o := stream[i]
		id, k := o.id(), o.kind()
		key := in.key(id)
		n := 1
		if k == kMGet || k == kBatch {
			n = multiLen
		}
		req := uint32(call*len(in.streams) + c)
		var f failure
		var t0, t1 int64
		switch k {
		case kGet:
			t0 = clock.now()
			v, err := cl.Get(key)
			t1 = clock.now()
			f = pointFailure(chk, id, v, err, client.ErrNotFound)
			st.lookups++
			rec.call(spClientGet, sp, req, t0, t1)
		case kUpdate:
			version := chk.versions[id] + 1
			stamp(bufs, id, version)
			t0 = clock.now()
			err := cl.Put(key, bufs[:valueSize])
			t1 = clock.now()
			if f = errFailure(err); f == ok {
				chk.versions[id] = version
				st.user += recordBytes
			}
			rec.call(spClientPut, sp, req, t0, t1)
		case kMGet:
			for j := range keys {
				keys[j] = in.key(stream[i+j].id())
			}
			t0 = clock.now()
			vals, err := cl.MultiGet(keys)
			t1 = clock.now()
			f = errFailure(err)
			for j := 0; f == ok && j < len(vals); j++ {
				f = chk.value(stream[i+j].id(), vals[j])
			}
			st.lookups += multiLen
			rec.call(spClientMGet, sp, req, t0, t1)
		case kBatch:
			for j := range batch {
				bid := stream[i+j].id()
				val := bufs[j*valueSize : (j+1)*valueSize]
				stamp(val, bid, chk.versions[bid]+1)
				batch[j] = wire.BatchOp{Key: in.key(bid), Value: val}
			}
			t0 = clock.now()
			err := cl.WriteBatch(batch)
			t1 = clock.now()
			if f = errFailure(err); f == ok {
				for j := range batch {
					chk.versions[stream[i+j].id()]++
				}
				st.user += multiLen * recordBytes
			}
			rec.call(spClientBatch, sp, req, t0, t1)
		}
		st.tally.note(f)
		st.lat = append(st.lat, packLat(k, t1-t0))
		if c == 0 && spaceDue(call, in.perClient) {
			x.sampleSpace(m, x.live)
		}
		i += n
	}
}

// sweep reads every record that exists once more, after the final quiesce
// and outside all timings, and checks it like any other read.
func (x *instance) sweep(parent int32) tally {
	s := x.rec.begin(spSweep, parent)
	defer x.rec.end(s)
	var t tally
	for id := 0; id < x.live; id++ {
		v, err := x.db.Get(x.in.key(uint32(id)))
		t.note(pointFailure(x.chk, uint32(id), v, err, hyperdb.ErrNotFound))
	}
	return t
}

// liveHeapMiB is HeapAlloc after two collections. The caller has already
// dropped the inputs, the model and the latency buffers; what remains is
// the engine, including the simulated devices' file contents.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// release drops an instance and returns its memory to the OS, so the next
// set-up of the same run starts from the same heap.
func (x *instance) release() {
	x.close()
	*x = instance{}
	debug.FreeOSMemory()
}
