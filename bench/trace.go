package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName identifies what a span covers. Every span is recorded from the
// benchmark's own files, around a call into one layer's public functions;
// nothing inside the engine is instrumented.
type spanName uint8

const (
	spRun spanName = iota
	spGenerate
	spSetup
	spOpen
	spLoad
	spListenDial
	spMeasure
	spQuiesce
	spSweep
	spPass
	spMigrationStep
	spCompactionStep
	spCompactionIdle
	spGet
	spPut
	spScan
	spClientGet
	spClientPut
	spClientMGet
	spClientBatch
	spCalibrate
	spProbe
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"run", "generate", "setup", "hyperdb.Open", "load", "server.Listen+client.Dial",
	"measure", "quiesce", "sweep", "background.pass", "hyperdb.MigrationStep", "hyperdb.CompactionStep",
	"hyperdb.CompactionStep(idle)", "hyperdb.Get", "hyperdb.Put", "hyperdb.Scan",
	"client.Get", "client.Put", "client.MultiGet", "client.WriteBatch", "calibrate", "probe",
}

// span is (name, start, end, parent, request id); times are nanoseconds
// since the recorder's epoch, parent indexes the recorder's span slice
// (-1 for the root).
type span struct {
	name       spanName
	parent     int32
	req        uint32
	start, end int64
}

// aggregate folds every foreground call of one name: count, total time and
// a power-of-two histogram of durations in nanoseconds.
type aggregate struct {
	count uint64
	sumNs uint64
	hist  [40]uint32
}

// keepEvery is the foreground sampling stride: every call is aggregated,
// every keepEvery-th is also kept as a full span.
const keepEvery = 64

// recorder keeps spans in a preallocated slice and writes them out when the
// run ends. A nil recorder records nothing, so the untraced run pays one
// nil check per call site. One recorder belongs to one goroutine; client
// goroutines get a child from fork and the root merges them afterwards.
type recorder struct {
	epoch time.Time
	spans []span
	aggs  [nSpanNames]aggregate
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span that is always kept (background work, phases, probes).
func (r *recorder) begin(name spanName, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: r.now(), end: -1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].end = r.now()
	}
}

// endAs closes span i under another name (a CompactionStep is only known
// to have been idle once it returns).
func (r *recorder) endAs(i int32, name spanName) {
	if r != nil {
		r.spans[i].end = r.now()
		r.spans[i].name = name
	}
}

// call folds one foreground call, already timed by the caller, into the
// aggregates and keeps every keepEvery-th as a span.
func (r *recorder) call(name spanName, parent int32, req uint32, start, end int64) {
	if r == nil {
		return
	}
	a := &r.aggs[name]
	a.count++
	a.sumNs += uint64(end - start)
	a.hist[histBucket(end-start)]++
	if a.count%keepEvery == 1 {
		r.spans = append(r.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	}
}

func histBucket(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b > 39 {
		b = 39
	}
	return b
}

// fork returns a recorder for another goroutine sharing the epoch. Its
// spans must be leaves whose parents live in r, so merge can append them
// without renumbering.
func (r *recorder) fork(capacity int) *recorder {
	if r == nil {
		return nil
	}
	return newRecorder(r.epoch, capacity)
}

func (r *recorder) merge(child *recorder) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, child.spans...)
	for n := range r.aggs {
		a, c := &r.aggs[n], &child.aggs[n]
		a.count += c.count
		a.sumNs += c.sumNs
		for b := range a.hist {
			a.hist[b] += c.hist[b]
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other and
// are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < covered {
				lo = covered
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// window sums the durations of the kept spans of one name that lie inside
// [from, to], and returns them for percentile queries.
func (r *recorder) window(name spanName, from, to int64) (durs []int64, sum int64) {
	for _, s := range r.spans {
		if s.name == name && s.start >= from && s.end <= to {
			durs = append(durs, s.end-s.start)
			sum += s.end - s.start
		}
	}
	return durs, sum
}

// write dumps the trace as JSON: per-name totals (count, time, self time of
// the kept spans, histogram of all calls) and every kept span.
func (r *recorder) write(path string, meta string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	self := selfTimes(r.spans)
	type total struct {
		kept          int
		durNs, selfNs int64
	}
	var totals [nSpanNames]total
	for i, s := range r.spans {
		t := &totals[s.name]
		t.kept++
		t.durNs += s.end - s.start
		t.selfNs += self[i]
	}
	fmt.Fprintf(w, "{\"meta\":%s,\n\"keep_every_foreground_call\":%d,\n\"names\":{", meta, keepEvery)
	first := true
	for n := spanName(0); n < nSpanNames; n++ {
		t, a := totals[n], r.aggs[n]
		if t.kept == 0 && a.count == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n%q:{\"kept_spans\":%d,\"kept_ns\":%d,\"kept_self_ns\":%d,\"calls\":%d,\"calls_ns\":%d,\"calls_log2ns_hist\":[",
			spanNames[n], t.kept, t.durNs, t.selfNs, a.count, a.sumNs)
		last := len(a.hist) - 1
		for last > 0 && a.hist[last] == 0 {
			last--
		}
		for b := 0; b <= last; b++ {
			if b > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%d", a.hist[b])
		}
		w.WriteString("]}")
	}
	w.WriteString("},\n\"spans\":[")
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}",
			spanNames[s.name], s.start, s.end, s.parent, s.req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
