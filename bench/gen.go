package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"

	"hyperdb/internal/ycsb"
)

// kind is the type of one generated foreground call.
type kind uint8

const (
	kGet kind = iota
	kUpdate
	kInsert
	kScan
	kMGet
	kBatch
	// kCont carries the 2nd..nth record id of the multi-key request that
	// precedes it in the stream; it is not a call of its own.
	kCont
	nKinds
)

var kindNames = [nKinds]string{"get", "update", "insert", "scan", "mget", "batch", "cont"}

// op is one compact op record: kind in the top 3 bits, record id below.
// The timed loops read these and nothing else — no random numbers are drawn
// and no values are generated while the clock runs.
type op uint32

const idBits = 29

func mkOp(k kind, id uint32) op { return op(uint32(k)<<idBits | id) }
func (o op) kind() kind         { return kind(o >> idBits) }
func (o op) id() uint32         { return uint32(o) & (1<<idBits - 1) }

// Request shapes fixed by the issue.
const (
	scanLen  = 50
	multiLen = 16
)

// rng is splitmix64: the benchmark's only source of randomness, seeded from
// -seed alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// zipf draws ranks in [0, n) with Gray's algorithm at skew theta, the
// generator YCSB (and internal/ycsb, which does not export it) uses. Rank 0
// is the hottest; ycsb.Key scrambles ids, so hot ranks spread over the key
// space without a second scramble here.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan, half: zeta2,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
	}
}

func (z *zipf) next(r *rng) uint32 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := z.n * math.Pow(z.eta*u-z.eta+1, z.alpha)
	if v >= z.n {
		v = z.n - 1
	}
	return uint32(v)
}

// inputs is everything a run feeds the engine, generated from the seed
// before set-up starts.
type inputs struct {
	// keytab holds ycsb.Key(id) for every id the run can touch, 8 bytes
	// each, so the timed loop slices instead of hashing and allocating.
	keytab []byte
	// loaded is the record count the set-up phase writes; ids loaded.. are
	// inserted by the measured phase in ascending order.
	loaded int
	// streams holds one op stream per client.
	streams [][]op
	// perClient is the number of foreground calls in each stream (kCont
	// entries are not calls).
	perClient int
	// sorted holds every loaded key as a big-endian integer, ascending; only
	// built for workloads that scan (which never insert), where it makes the
	// expected result of every Scan exact.
	sorted []uint64
	// hash is FNV-1a over the op streams: the identity of the inputs.
	hash uint64
}

func (in *inputs) key(id uint32) []byte { return in.keytab[int(id)*8 : int(id)*8+8 : int(id)*8+8] }

// totalCalls is the number of foreground calls of all streams.
func (in *inputs) totalCalls() int { return in.perClient * len(in.streams) }

// generate builds the inputs of workload w at the given seed. ops is the
// total number of foreground calls across clients.
func generate(w *workload, records, ops int, seed int64) *inputs {
	clients := w.clients
	perClient := ops / clients
	in := &inputs{loaded: records, perClient: perClient}
	inserts := 0
	var cum [nKinds]float64
	var total float64
	for _, m := range w.mix {
		total += m.share
		cum[m.kind] = total
	}
	in.streams = make([][]op, clients)
	for c := 0; c < clients; c++ {
		// One generator per client, all derived from the one seed.
		r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)*0xd1b54a32d192ed03}
		stream := make([]op, 0, perClient+perClient/4)
		// Each client owns the ids of its own parity (id % clients == c), so
		// the version a read must return is known exactly under concurrency.
		// Uniform draws cover the ids that exist so far, inserts included;
		// only single-client workloads use them.
		var z *zipf
		if w.zipf {
			z = newZipf(records/clients, 0.99)
		}
		pick := func() uint32 {
			if z != nil {
				return z.next(r)*uint32(clients) + uint32(c)
			}
			return uint32(r.intn(uint64(records + inserts)))
		}
		multi := func(k kind, distinct bool) {
			first := len(stream)
			for len(stream)-first < multiLen {
				id := pick()
				dup := false
				for _, o := range stream[first:] {
					dup = dup || (distinct && o.id() == id)
				}
				if dup {
					continue
				}
				if len(stream) == first {
					stream = append(stream, mkOp(k, id))
				} else {
					stream = append(stream, mkOp(kCont, id))
				}
			}
		}
		for i := 0; i < perClient; i++ {
			p := r.float() * total
			var k kind
			for _, m := range w.mix {
				if k = m.kind; p < cum[k] {
					break
				}
			}
			switch k {
			case kInsert:
				stream = append(stream, mkOp(kInsert, uint32(records+inserts)))
				inserts++
			case kMGet:
				multi(kMGet, false)
			case kBatch:
				// Distinct ids within a batch, so each op's version is its
				// key's latest plus one whatever order the engine applies.
				multi(kBatch, true)
			default:
				stream = append(stream, mkOp(k, pick()))
			}
		}
		in.streams[c] = stream
	}

	in.keytab = make([]byte, 0, (records+inserts)*8)
	for id := 0; id < records+inserts; id++ {
		in.keytab = append(in.keytab, ycsb.Key(int64(id))...)
	}
	if w.scans() {
		in.sorted = make([]uint64, records)
		for id := range in.sorted {
			in.sorted[id] = binary.BigEndian.Uint64(in.key(uint32(id)))
		}
		sort.Slice(in.sorted, func(i, j int) bool { return in.sorted[i] < in.sorted[j] })
	}

	h := uint64(14695981039346656037)
	for _, s := range in.streams {
		for _, o := range s {
			for sh := 0; sh < 32; sh += 8 {
				h = (h ^ uint64(o>>sh&0xff)) * 1099511628211
			}
		}
	}
	in.hash = h
	return in
}
