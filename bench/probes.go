package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"hyperdb"
	"hyperdb/internal/compress"
	"hyperdb/internal/device"
	"hyperdb/internal/hotness"
	"hyperdb/internal/keys"
	"hyperdb/internal/semisst"
	"hyperdb/internal/wire"
)

// The probes run single layers on the workload's own keys and values, in
// the traced run only and outside the measured phase. Each calls nothing
// but the layer's public functions and records one span.

const (
	probeEntries    = 8192
	probeMergeBatch = 512
	probeBlock      = 4096
	probeKeys       = 1 << 20
)

// probeHotness pushes the workload's key stream through a fresh Tracker
// built with the engine's resolved configuration.
func (ls layerSet) probeHotness(x *instance, rec *recorder, parent int32) {
	s := rec.begin(spProbe, parent)
	defer rec.end(s)
	t := hotness.NewTracker(x.db.Engine().Options().Tracker)
	stream := x.in.streams[0]
	if len(stream) > probeKeys {
		stream = stream[:probeKeys]
	}
	start := time.Now()
	for _, o := range stream {
		t.Record(x.in.key(o.id()))
	}
	ls["hotness.record_ns"] = float64(time.Since(start)) / float64(len(stream))
}

// probeEntriesOf returns n workload records as sorted semi-SSTable entries,
// starting at record id from.
func probeEntriesOf(in *inputs, from, n int, seq uint64) []semisst.Entry {
	if from+n > len(in.keytab)/8 {
		n = len(in.keytab)/8 - from
	}
	entries := make([]semisst.Entry, n)
	for i := range entries {
		id := uint32(from + i)
		v := make([]byte, valueSize)
		stamp(v, id, 1)
		entries[i] = semisst.Entry{Key: keys.InternalKey{User: in.key(id), Seq: seq, Kind: keys.KindSet}, Value: v}
	}
	sort.Slice(entries, func(i, j int) bool {
		return binary.BigEndian.Uint64(entries[i].Key.User) < binary.BigEndian.Uint64(entries[j].Key.User)
	})
	return entries
}

// probeSemiSST builds one semi-SSTable from workload entries on an
// unthrottled device, reads every entry back and merges one batch into it.
func (ls layerSet) probeSemiSST(x *instance, rec *recorder, parent int32) error {
	s := rec.begin(spProbe, parent)
	defer rec.end(s)
	dev := device.New(device.UnthrottledProfile("probe", 1<<30))
	f, err := dev.Create("probe.sst")
	if err != nil {
		return err
	}
	n := probeEntries
	if most := x.in.loaded * 3 / 4; n > most {
		n = most // leave records for the merge batch on scaled-down runs
	}
	entries := probeEntriesOf(x.in, 0, n, 1)
	var bytes int
	for _, e := range entries {
		bytes += len(e.Key.User) + len(e.Value)
	}
	codec, _ := compress.Parse(x.w.compress)
	start := time.Now()
	t, err := semisst.Build(f, semisst.Options{Codec: codec}, entries, device.Bg)
	if err != nil {
		return fmt.Errorf("semisst probe: build: %w", err)
	}
	ls["semisst.build_mb_per_s"] = float64(bytes) / 1e6 / time.Since(start).Seconds()

	start = time.Now()
	for _, e := range entries {
		if _, _, found, err := t.Get(e.Key.User, keys.MaxSeq, device.Fg); err != nil || !found {
			return fmt.Errorf("semisst probe: get: found=%v err=%v", found, err)
		}
	}
	ls["semisst.get_us"] = float64(time.Since(start).Microseconds()) / float64(len(entries))

	batch := probeEntriesOf(x.in, len(entries), probeMergeBatch, 2)
	if len(batch) == 0 {
		return nil
	}
	start = time.Now()
	if _, err := t.Merge(batch, false, device.Bg); err != nil {
		return fmt.Errorf("semisst probe: merge: %w", err)
	}
	ls["semisst.merge_us_per_entry"] = float64(time.Since(start).Microseconds()) / float64(len(batch))
	return nil
}

// probeCompress encodes and decodes 4 KiB blocks of workload values with
// the LZ codec (the only one the engine ships).
func (ls layerSet) probeCompress(x *instance, rec *recorder, parent int32) error {
	s := rec.begin(spProbe, parent)
	defer rec.end(s)
	const blocks = 512
	raw := make([][]byte, blocks)
	id := uint32(0)
	for b := range raw {
		blk := make([]byte, probeBlock)
		for off := 0; off+valueSize <= probeBlock; off += valueSize {
			stamp(blk[off:], id%uint32(x.in.loaded), 1)
			id++
		}
		raw[b] = blk
	}
	enc := make([][]byte, blocks)
	start := time.Now()
	for b, blk := range raw {
		enc[b] = compress.Encode(nil, compress.LZ, blk)
	}
	ls["compress.encode_mb_per_s"] = float64(blocks*probeBlock) / 1e6 / time.Since(start).Seconds()
	start = time.Now()
	for b, e := range enc {
		out, err := compress.Decode(e, probeBlock)
		if err != nil || len(out) != len(raw[b]) {
			return fmt.Errorf("compress probe: decode: len=%d err=%v", len(out), err)
		}
	}
	ls["compress.decode_mb_per_s"] = float64(blocks*probeBlock) / 1e6 / time.Since(start).Seconds()
	return nil
}

// probeWire runs the served request stream through the frame and payload
// codecs alone: every request and a response of the size the server would
// send are encoded and decoded once.
func (ls layerSet) probeWire(x *instance, rec *recorder, parent int32) error {
	s := rec.begin(spProbe, parent)
	defer rec.end(s)
	in := x.in
	value := make([]byte, valueSize)
	stamp(value, 0, 1)
	keysBuf := make([][]byte, multiLen)
	vals := make([][]byte, multiLen)
	batch := make([]wire.BatchOp, multiLen)
	for j := range vals {
		vals[j] = value
	}
	// payload is the encode buffer, frame the wire image; dec aliases frame.
	var payload, frame, dec []byte
	var reqs, bytes int
	roundTrip := func(op wire.Op, p []byte) ([]byte, error) {
		frame = wire.AppendFrame(frame[:0], wire.Frame{Op: op, ID: uint64(reqs), Payload: p})
		bytes += len(frame)
		f, _, err := wire.DecodeFrame(frame, 0)
		return f.Payload, err
	}
	start := time.Now()
	for _, stream := range in.streams {
		for i := 0; i < len(stream); {
			o := stream[i]
			key := in.key(o.id())
			var err error
			n := 1
			switch o.kind() {
			case kGet:
				payload = wire.AppendKeyReq(payload[:0], key)
				if dec, err = roundTrip(wire.OpGet, payload); err == nil {
					_, err = wire.DecodeKeyReq(dec)
				}
				if err == nil {
					_, err = roundTrip(wire.OpGet, value)
				}
			case kUpdate:
				payload = wire.AppendPutReq(payload[:0], key, value)
				if dec, err = roundTrip(wire.OpPut, payload); err == nil {
					_, _, err = wire.DecodePutReq(dec)
				}
				if err == nil {
					_, err = roundTrip(wire.OpPut, nil)
				}
			case kMGet:
				n = multiLen
				for j := range keysBuf {
					keysBuf[j] = in.key(stream[i+j].id())
				}
				payload = wire.AppendMGetReq(payload[:0], keysBuf)
				if dec, err = roundTrip(wire.OpMGet, payload); err == nil {
					_, err = wire.DecodeMGetReq(dec)
				}
				if err == nil {
					payload = wire.AppendMGetResp(payload[:0], vals)
					if dec, err = roundTrip(wire.OpMGet, payload); err == nil {
						_, err = wire.DecodeMGetResp(dec)
					}
				}
			case kBatch:
				n = multiLen
				for j := range batch {
					batch[j] = wire.BatchOp{Key: in.key(stream[i+j].id()), Value: value}
				}
				payload = wire.AppendBatchReq(payload[:0], batch)
				if dec, err = roundTrip(wire.OpBatch, payload); err == nil {
					_, err = wire.DecodeBatchReq(dec)
				}
				if err == nil {
					_, err = roundTrip(wire.OpBatch, nil)
				}
			}
			if err != nil {
				return fmt.Errorf("wire probe: %s: %w", kindNames[o.kind()], err)
			}
			reqs++
			i += n
		}
	}
	ls["wire.codec_us_per_req"] = float64(time.Since(start).Microseconds()) / float64(reqs)
	ls["wire.bytes_per_req"] = float64(bytes) / float64(reqs)
	return nil
}

// replayEngine feeds the served request stream straight into hyperdb.DB on
// an identically loaded instance, one goroutine, clients interleaved, and
// returns the CPU time per request: what the engine costs without client,
// wire, server and socket.
func replayEngine(x *instance, rec *recorder, parent int32) (cpuPerReq time.Duration, err error) {
	s := rec.begin(spProbe, parent)
	defer rec.end(s)
	in, db := x.in, x.db
	bufs := make([]byte, multiLen*valueSize)
	keysBuf := make([][]byte, multiLen)
	batch := make([]hyperdb.BatchOp, multiLen)
	pos := make([]int, len(in.streams))
	reqs := 0
	cpu0 := cpuTime()
	for live := len(in.streams); live > 0; {
		live = 0
		for c, stream := range in.streams {
			i := pos[c]
			if i >= len(stream) {
				continue
			}
			live++
			o := stream[i]
			id := o.id()
			n := 1
			switch o.kind() {
			case kGet:
				if _, err := db.Get(in.key(id)); err != nil && !errors.Is(err, hyperdb.ErrNotFound) {
					return 0, err
				}
			case kUpdate:
				stamp(bufs, id, 2)
				if err := db.Put(in.key(id), bufs[:valueSize]); err != nil {
					return 0, err
				}
			case kMGet:
				n = multiLen
				for j := range keysBuf {
					keysBuf[j] = in.key(stream[i+j].id())
				}
				if _, err := db.MultiGet(keysBuf); err != nil {
					return 0, err
				}
			case kBatch:
				n = multiLen
				for j := range batch {
					bid := stream[i+j].id()
					val := bufs[j*valueSize : (j+1)*valueSize]
					stamp(val, bid, 2)
					batch[j] = hyperdb.BatchOp{Key: in.key(bid), Value: val}
				}
				if err := db.WriteBatch(batch); err != nil {
					return 0, err
				}
			}
			pos[c] = i + n
			reqs++
		}
	}
	return (cpuTime() - cpu0) / time.Duration(reqs), nil
}

// probeWorkers replays the workload's inputs once against an engine opened
// with the production background workers on: the same set-up and measured
// loop as the gated run, checks included, minus the inline driver. The result
// is reported, not gated: with a dataset larger than the NVMe tier the 2 ms-
// ticker workers make write amplification scheduler-dependent and reads of
// acked keys can transiently miss while a demotion is in flight. Keeping both
// visible is the point.
func (ls layerSet) probeWorkers(w *workload, sz sizes, in *inputs, cal *calibrator, rec *recorder, parent int32) error {
	s := rec.begin(spProbe, parent)
	defer rec.end(s)
	x, err := setUp(w, sz, in, true, nil, -1)
	if err != nil {
		return fmt.Errorf("workers probe: %w", err)
	}
	defer x.release()
	m, err := x.measure(cal, -1)
	if err != nil {
		return fmt.Errorf("workers probe: %w", err)
	}
	if err := x.db.DrainBackground(); err != nil {
		return fmt.Errorf("workers probe: drain: %w", err)
	}
	st := x.db.Stats()
	ls["workers.ops_per_s"] = m.opsPerSec()
	ls["workers.write_amp"] = traffic{user: float64(x.userBytes), nvme: st.NVMe, sata: st.SATA}.writeAmp()
	ls["workers.space_amp"] = mean(m.space)
	ls["workers.read_miss"] = float64(m.tally.failures[failMissing])
	return nil
}
