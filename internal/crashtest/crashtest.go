// Package crashtest is a deterministic crash-recovery harness. A cycle runs
// a seeded random workload against an engine on simulated devices armed with
// a fault plan; the first operation error is treated as the crash point, the
// devices suffer a power cut (unsynced appended tails vanish, torn writes
// may have persisted a prefix), and the engine is recovered and checked
// against an in-memory model:
//
//   - Durability: every acknowledged write not overwritten later must read
//     back exactly (value, or absence after an acknowledged delete).
//   - Bounded uncertainty: only the single in-flight operation's key may
//     differ, and then only to a previously acknowledged value, the
//     in-flight value, or absence — never an invented value.
//   - No resurrection: keys never written must not appear; scans must be
//     strictly ordered and agree with the model.
//   - Liveness: after recovery the engine accepts writes, runs background
//     steps, and serves exact reads.
//
// Failures reproduce from the printed seed; the failing trace is shrunk
// (ddmin) before reporting.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hyperdb/internal/core"
	"hyperdb/internal/device"
	"hyperdb/internal/engine"
)

type opKind uint8

const (
	opPut opKind = iota
	opDelete
	opGet
	opStep
	opIncr
)

// op is one trace element. Values and deltas are materialised at generation
// time so a shrunk trace replays byte-identically.
type op struct {
	kind  opKind
	key   string
	value string
	delta int64 // opIncr
}

func (o op) String() string {
	switch o.kind {
	case opPut:
		return fmt.Sprintf("put(%s,%dB)", o.key, len(o.value))
	case opDelete:
		return fmt.Sprintf("del(%s)", o.key)
	case opGet:
		return fmt.Sprintf("get(%s)", o.key)
	case opIncr:
		return fmt.Sprintf("incr(%s,%+d)", o.key, o.delta)
	default:
		return "step"
	}
}

func formatTrace(t []op) string {
	parts := make([]string, len(t))
	for i, o := range t {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// genTrace builds a workload of puts, deletes, reads and background steps
// over a small hot key space.
func genTrace(rng *rand.Rand, nKeys, nOps int) []op {
	ops := make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		k := fmt.Sprintf("k%03d", rng.Intn(nKeys))
		switch r := rng.Float64(); {
		case r < 0.55:
			b := make([]byte, 8+rng.Intn(160))
			for j := range b {
				b[j] = 'a' + byte(rng.Intn(26))
			}
			ops = append(ops, op{kind: opPut, key: k, value: string(b)})
		case r < 0.70:
			ops = append(ops, op{kind: opDelete, key: k})
		case r < 0.90:
			ops = append(ops, op{kind: opGet, key: k})
		default:
			ops = append(ops, op{kind: opStep})
		}
	}
	return ops
}

// genMergeTrace builds a merge-heavy workload: counter increments dominate
// (hot-skewed so same-key folds happen in every drain window), with enough
// puts, deletes, reads and background steps interleaved that crashes land
// inside flush/migration/compaction. Counters live on their own "c" keyspace
// so a merge never collides with an opaque put value; deletes and reads hit
// both keyspaces, covering the tombstone-means-base-0 path.
func genMergeTrace(rng *rand.Rand, nKeys, nCtrs, nOps int) []op {
	pick := func() string {
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("c%03d", rng.Intn(nCtrs))
		}
		return fmt.Sprintf("k%03d", rng.Intn(nKeys))
	}
	ops := make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		switch r := rng.Float64(); {
		case r < 0.50:
			c := fmt.Sprintf("c%03d", rng.Intn(nCtrs))
			if rng.Intn(2) == 0 {
				c = "c000" // hot counter: half the increments collide
			}
			ops = append(ops, op{kind: opIncr, key: c, delta: int64(rng.Intn(9) - 2)})
		case r < 0.64:
			b := make([]byte, 8+rng.Intn(160))
			for j := range b {
				b[j] = 'a' + byte(rng.Intn(26))
			}
			ops = append(ops, op{kind: opPut, key: fmt.Sprintf("k%03d", rng.Intn(nKeys)), value: string(b)})
		case r < 0.72:
			ops = append(ops, op{kind: opDelete, key: pick()})
		case r < 0.90:
			ops = append(ops, op{kind: opGet, key: pick()})
		default:
			ops = append(ops, op{kind: opStep})
		}
	}
	return ops
}

// kstate is the model's view of one key.
type kstate struct {
	present bool
	cur     string
	history map[string]bool // every acknowledged value, for the uncertain set

	// Crash-point uncertainty: set when the in-flight op at the crash
	// targeted this key.
	uncertain bool
	pendPut   bool
	pendVal   string
}

type model map[string]*kstate

func (m model) at(k string) *kstate {
	s := m[k]
	if s == nil {
		s = &kstate{history: make(map[string]bool)}
		m[k] = s
	}
	return s
}

// counterBase is the model's pre-merge counter value for the key: absent or
// deleted means 0, otherwise the decoded current value. ok is false when the
// key holds a non-counter value — the trace generator keeps counter and
// opaque keyspaces disjoint, so that is a harness bug, not an engine one.
func (s *kstate) counterBase() (int64, bool) {
	if !s.present {
		return 0, true
	}
	v, err := core.DecodeCounter([]byte(s.cur))
	return v, err == nil
}

// allowed reports whether an observed post-crash state is legal for the key.
func (s *kstate) allowed(present bool, val string) bool {
	if !s.uncertain {
		return present == s.present && (!present || val == s.cur)
	}
	if !present {
		return true
	}
	return s.history[val] || (s.pendPut && val == s.pendVal)
}

// cycleConfig pins everything one cycle needs to replay exactly.
type cycleConfig struct {
	factory  Factory
	seed     int64
	trace    []op
	failNVMe int64 // FailWriteAfter for the NVMe device
	failSATA int64 // FailWriteAfter for the SATA device
	torn     bool
}

// runCycle executes one crash-recover-verify cycle. It returns "" on
// success, otherwise a description of the invariant violation. crashed
// reports whether an injected fault surfaced mid-trace (as opposed to the
// power cut landing on an idle engine).
func runCycle(c cycleConfig) (violation string, crashed bool) {
	nvme := device.New(device.UnthrottledProfile("nvme", c.factory.NVMeCap))
	sata := device.New(device.UnthrottledProfile("sata", c.factory.SATACap))
	cfg := Config{NVMe: nvme, SATA: sata}
	eng, err := c.factory.Open(cfg)
	if err != nil {
		return fmt.Sprintf("open: %v", err), false
	}
	nvme.InjectFaults(device.FaultPlan{Seed: c.seed, FailWriteAfter: c.failNVMe, TornWrites: c.torn})
	sata.InjectFaults(device.FaultPlan{Seed: c.seed + 1, FailWriteAfter: c.failSATA, TornWrites: c.torn})

	m := model{}
	for i, o := range c.trace {
		switch o.kind {
		case opPut:
			if err := eng.Put([]byte(o.key), []byte(o.value)); err != nil {
				s := m.at(o.key)
				s.uncertain, s.pendPut, s.pendVal = true, true, o.value
				crashed = true
			} else {
				s := m.at(o.key)
				s.present, s.cur = true, o.value
				s.history[o.value] = true
			}
		case opDelete:
			if err := eng.Delete([]byte(o.key)); err != nil {
				m.at(o.key).uncertain = true
				crashed = true
			} else {
				m.at(o.key).present = false
			}
		case opGet:
			v, err := eng.Get([]byte(o.key))
			s := m.at(o.key)
			switch {
			case err == nil:
				if !s.present || s.cur != string(v) {
					return fmt.Sprintf("live get op %d: %s returned %dB, model %v", i, o.key, len(v), s.present), crashed
				}
			case errors.Is(err, engine.ErrNotFound):
				if s.present {
					return fmt.Sprintf("live get op %d: %s missing, model has %dB", i, o.key, len(s.cur)), crashed
				}
			default:
				// An injected fault surfaced through a read-path write (e.g. a
				// cache admission); treat it as the crash point. Reads do not
				// change logical state, so no key becomes uncertain.
				crashed = true
			}
		case opIncr:
			s := m.at(o.key)
			base, ok := s.counterBase()
			if !ok {
				return fmt.Sprintf("trace bug: incr target %s holds a non-counter model value", o.key), crashed
			}
			want := core.SatAdd(base, o.delta)
			v, err := incr(eng, []byte(o.key), o.delta)
			switch {
			case err == nil:
				if v != want {
					return fmt.Sprintf("live incr op %d: %s = %d, model %d", i, o.key, v, want), crashed
				}
				enc := string(core.EncodeCounter(want))
				s.present, s.cur = true, enc
				s.history[enc] = true
			case errors.Is(err, core.ErrNotCounter):
				// Never legal here: the keyspaces are disjoint, so a
				// non-counter base means the engine corrupted the value.
				return fmt.Sprintf("live incr op %d: %s rejected as non-counter: %v", i, o.key, err), crashed
			default:
				// Unacked: the counter may hold the old value, the post-merge
				// value (the merge resolves to a put of that encoding), or —
				// for a never-persisted key — nothing.
				s.uncertain, s.pendPut, s.pendVal = true, true, string(core.EncodeCounter(want))
				crashed = true
			}
		case opStep:
			// A failed background step crashes the system mid-flush/
			// migration/compaction. No client op is in flight, so every
			// acknowledged write must still be durable.
			if err := eng.BackgroundStep(); err != nil {
				crashed = true
			}
		}
		if crashed {
			break
		}
	}
	// !crashed = the power cut lands on an idle engine; same checks apply.
	nvme.PowerCut()
	sata.PowerCut()
	nvme.ClearFaults()
	sata.ClearFaults()

	reng, err := c.factory.Open(cfg)
	if err != nil {
		return fmt.Sprintf("recover: %v", err), crashed
	}
	defer reng.Close()

	// Point reads against the model.
	for k, s := range m {
		v, err := reng.Get([]byte(k))
		if err != nil && !errors.Is(err, engine.ErrNotFound) {
			return fmt.Sprintf("post-crash get %s: %v", k, err), crashed
		}
		present := err == nil
		if !s.allowed(present, string(v)) {
			return fmt.Sprintf("post-crash get %s: present=%v val=%q, model cur=%q present=%v uncertain=%v",
				k, present, trunc(string(v)), trunc(s.cur), s.present, s.uncertain), crashed
		}
	}

	// Scan: strict key order, no resurrected keys, model agreement.
	kvs, err := reng.Scan([]byte(""), len(m)+16)
	if err != nil {
		return fmt.Sprintf("post-crash scan: %v", err), crashed
	}
	seen := make(map[string]string, len(kvs))
	prev := ""
	for _, kv := range kvs {
		k := string(kv.Key)
		if prev != "" && k <= prev {
			return fmt.Sprintf("scan order violation: %q after %q", k, prev), crashed
		}
		prev = k
		seen[k] = string(kv.Value)
	}
	for k, s := range m {
		v, ok := seen[k]
		if !s.allowed(ok, v) {
			return fmt.Sprintf("post-crash scan key %s: present=%v val=%q, model cur=%q present=%v uncertain=%v",
				k, ok, trunc(v), trunc(s.cur), s.present, s.uncertain), crashed
		}
	}
	for k := range seen {
		if _, known := m[k]; !known {
			return fmt.Sprintf("scan resurrected never-written key %q", k), crashed
		}
	}

	// Liveness: overwrite every key, run background steps, verify exactly.
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for i, k := range ks {
		want := fmt.Sprintf("post-%d-%s", i, k)
		if err := reng.Put([]byte(k), []byte(want)); err != nil {
			return fmt.Sprintf("post-recovery put %s: %v", k, err), crashed
		}
	}
	for i := 0; i < 4; i++ {
		if err := reng.BackgroundStep(); err != nil {
			return fmt.Sprintf("post-recovery step %d: %v", i, err), crashed
		}
	}
	for i, k := range ks {
		want := fmt.Sprintf("post-%d-%s", i, k)
		v, err := reng.Get([]byte(k))
		if err != nil {
			return fmt.Sprintf("post-recovery get %s: %v", k, err), crashed
		}
		if string(v) != want {
			return fmt.Sprintf("post-recovery get %s = %q, want %q", k, trunc(string(v)), want), crashed
		}
	}
	return "", crashed
}

func trunc(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

// shrink reduces a failing trace with bounded ddmin: repeatedly remove
// chunks while the cycle still fails, halving chunk size when stuck.
func shrink(c cycleConfig, budget int) []op {
	trace := c.trace
	fails := func(t []op) bool {
		if budget <= 0 {
			return false
		}
		budget--
		cc := c
		cc.trace = t
		v, _ := runCycle(cc)
		return v != ""
	}
	n := 2
	for len(trace) > 1 {
		chunk := (len(trace) + n - 1) / n
		removed := false
		for start := 0; start < len(trace); start += chunk {
			end := start + chunk
			if end > len(trace) {
				end = len(trace)
			}
			cand := make([]op, 0, len(trace)-(end-start))
			cand = append(cand, trace[:start]...)
			cand = append(cand, trace[end:]...)
			if len(cand) > 0 && fails(cand) {
				trace = cand
				if n > 2 {
					n--
				}
				removed = true
				break
			}
		}
		if !removed {
			if n >= len(trace) || budget <= 0 {
				break
			}
			n *= 2
			if n > len(trace) {
				n = len(trace)
			}
		}
	}
	return trace
}
