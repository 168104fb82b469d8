// Package consistency is a randomized-schedule session-consistency harness
// for follower reads. A cluster of one primary and F followers runs over
// real TCP through the full serving stack; the followers' appliers are
// stalled with seeded random lag so their state genuinely trails the
// primary. N client sessions then execute a seeded schedule of writes and
// policy-routed reads, and every read is checked against the strongest
// claim the session protocol makes:
//
//   - Read-your-writes: a session reading a key only it writes must see
//     exactly its last acknowledged write — never an older version, never
//     absence after the first write.
//   - Monotonic reads: a session re-reading a key written by another
//     session must never observe a version older than one it already saw,
//     and never absence after a hit — across every node its reads land on.
//
// The checks hold because session writes return their committed sequence,
// session reads carry it as a gate the server enforces against its applied
// replication position, and every response's applied sequence folds back
// into the token. Reading with client.ReadAny, which sends no token, makes
// the same schedules fail — the harness proves it can detect the staleness
// the gate prevents, so a green run means something.
//
// Failures reproduce from the printed seed and shrink (ddmin) before
// reporting, like package crashtest.
package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
	"hyperdb/internal/server"
)

// Config parameterises one harness run. The zero value of every field gets
// a sane default from fill.
type Config struct {
	// Seed drives schedule generation and lag injection.
	Seed int64
	// Sessions is the number of concurrent client sessions. Default 4.
	Sessions int
	// Steps is the total schedule length across sessions. Default 160.
	Steps int
	// Keys is the per-session private key-space size (and the shared
	// key-space size). Default 8.
	Keys int
	// Followers is the replica count. Default 2.
	Followers int
	// Policy routes the sessions' reads. Default ReadBounded.
	Policy client.ReadPolicy
	// ReadWait is the followers' bounded gate wait. Default 5s (tests want
	// parked reads to resolve, not time out, unless replication truly
	// stalls).
	ReadWait time.Duration
	// MinLag and MaxLag bound the injected per-entry apply delay on each
	// follower. Defaults 1ms and 4ms.
	MinLag, MaxLag time.Duration
}

func (c *Config) fill() {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Steps <= 0 {
		c.Steps = 160
	}
	if c.Keys <= 0 {
		c.Keys = 8
	}
	if c.Followers <= 0 {
		c.Followers = 2
	}
	if c.Policy == 0 && c.Followers > 0 {
		c.Policy = client.ReadBounded
	}
	if c.ReadWait == 0 {
		c.ReadWait = 5 * time.Second
	}
	if c.MinLag <= 0 {
		c.MinLag = time.Millisecond
	}
	if c.MaxLag < c.MinLag {
		c.MaxLag = 4 * time.Millisecond
	}
}

type stepKind uint8

const (
	// stepPutGet writes a session-private key and immediately reads it
	// back — the sharpest read-your-writes probe, because the replica
	// cannot have applied the write yet unless the gate made it wait.
	stepPutGet stepKind = iota
	stepPut             // write a private key
	stepGet             // read a private key
	stepMGet            // read three private keys in one MGET
	stepScan            // scan the session's private prefix
	// stepIncr merges a delta into a session-private counter and immediately
	// reads it back through the routing policy — the read-your-increments
	// analogue of stepPutGet: the replica cannot have applied the merge yet
	// unless the gate made it wait, and the value must equal the session's
	// exact delta sum.
	stepIncr
	stepCtrGet    // read a private counter (must decode to the exact sum)
	stepSharedPut // session 0 bumps a shared key
	stepSharedGet // read a shared key (monotonic-reads probe)
)

// step is one schedule element. Versions are derived deterministically at
// execution time (each write of a key is its previous version + 1), so a
// shrunk schedule replays exactly.
type step struct {
	sess int
	kind stepKind
	key  int
}

func (s step) String() string {
	switch s.kind {
	case stepPutGet:
		return fmt.Sprintf("s%d:putget(k%d)", s.sess, s.key)
	case stepPut:
		return fmt.Sprintf("s%d:put(k%d)", s.sess, s.key)
	case stepGet:
		return fmt.Sprintf("s%d:get(k%d)", s.sess, s.key)
	case stepMGet:
		return fmt.Sprintf("s%d:mget(k%d..)", s.sess, s.key)
	case stepScan:
		return fmt.Sprintf("s%d:scan", s.sess)
	case stepIncr:
		return fmt.Sprintf("s%d:incr(q%d)", s.sess, s.key)
	case stepCtrGet:
		return fmt.Sprintf("s%d:ctrget(q%d)", s.sess, s.key)
	case stepSharedPut:
		return fmt.Sprintf("s%d:shput(k%d)", s.sess, s.key)
	default:
		return fmt.Sprintf("s%d:shget(k%d)", s.sess, s.key)
	}
}

// FormatSchedule renders a schedule for failure reports.
func FormatSchedule(sched []step) string {
	parts := make([]string, len(sched))
	for i, s := range sched {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// GenSchedule builds a seeded schedule. Shared writes are pinned to
// session 0 so every shared key has a single writer and observed versions
// are totally ordered.
func GenSchedule(rng *rand.Rand, cfg Config) []step {
	cfg.fill()
	sched := make([]step, 0, cfg.Steps)
	for i := 0; i < cfg.Steps; i++ {
		st := step{sess: rng.Intn(cfg.Sessions), key: rng.Intn(cfg.Keys)}
		switch r := rng.Float64(); {
		case r < 0.26:
			st.kind = stepPutGet
		case r < 0.36:
			st.kind = stepPut
		case r < 0.52:
			st.kind = stepGet
		case r < 0.60:
			st.kind = stepMGet
		case r < 0.66:
			st.kind = stepScan
		case r < 0.76:
			st.kind = stepIncr
		case r < 0.84:
			st.kind = stepCtrGet
		case r < 0.92:
			st.kind = stepSharedPut
			st.sess = 0
		default:
			st.kind = stepSharedGet
		}
		sched = append(sched, st)
	}
	return sched
}

// node is one served engine in the harness cluster.
type node struct {
	db   *hyperdb.DB
	srv  *server.Server
	addr string
	log  *repl.Log
	// fol is the follower applier once attached; the server's Epoch hook
	// reads it so responses carry the lineage the applier is on.
	fol atomic.Pointer[repl.Follower]
}

func newNode(follower, withLog bool, logCfg repl.LogConfig, cfg Config) (*node, error) {
	opts := hyperdb.Options{
		NVMeDevice:     device.New(device.UnthrottledProfile("nvme", 32<<20)),
		SATADevice:     device.New(device.UnthrottledProfile("sata", 1<<30)),
		Partitions:     4,
		CacheBytes:     4 << 20,
		MigrationBatch: 256 << 10,
		Follower:       follower,
	}
	var log *repl.Log
	if withLog {
		log = repl.NewLog(logCfg)
		opts.Tee = log
	}
	db, err := hyperdb.Open(opts)
	if err != nil {
		return nil, err
	}
	n := &node{db: db, log: log}
	scfg := server.Config{
		DB:       db,
		OwnDB:    true,
		ReadWait: cfg.ReadWait,
	}
	if log != nil {
		scfg.Repl = &repl.Primary{DB: db, Log: log}
	}
	// A node's serving epoch is the lineage of whatever it applies from:
	// the upstream's while it runs as a follower (even when re-teeing into
	// its own log for chaining — the re-tee log's distinct epoch only
	// matters once this node is promoted and its log becomes the write
	// lineage), its own log's once primary.
	scfg.Epoch = func() uint64 {
		if db.IsFollower() {
			if f := n.fol.Load(); f != nil {
				return f.Epoch()
			}
			return 0
		}
		if log != nil {
			return log.Epoch()
		}
		return 0
	}
	srv, err := server.New(scfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	n.srv, n.addr = srv, addr.String()
	return n, nil
}

// cluster is 1 primary + F followers with lag-injected appliers.
type cluster struct {
	primary   *node
	followers []*node
	stop      chan struct{}
	appliers  sync.WaitGroup

	lagMu  sync.Mutex
	lagRng *rand.Rand
	minLag time.Duration
	lagW   time.Duration // MaxLag - MinLag
}

func (cl *cluster) lag() time.Duration {
	cl.lagMu.Lock()
	d := cl.minLag
	if cl.lagW > 0 {
		d += time.Duration(cl.lagRng.Int63n(int64(cl.lagW)))
	}
	cl.lagMu.Unlock()
	return d
}

func newCluster(cfg Config) (*cluster, error) {
	cl := &cluster{
		stop:   make(chan struct{}),
		lagRng: rand.New(rand.NewSource(cfg.Seed ^ 0x1a9)),
		minLag: cfg.MinLag,
		lagW:   cfg.MaxLag - cfg.MinLag,
	}
	p, err := newNode(false, true, repl.LogConfig{}, cfg)
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	cl.primary = p
	for i := 0; i < cfg.Followers; i++ {
		f, err := newNode(true, false, repl.LogConfig{}, cfg)
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("follower %d: %w", i, err)
		}
		cl.followers = append(cl.followers, f)
		nc, err := net.Dial("tcp", p.addr)
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("follower %d dial: %w", i, err)
		}
		fol := &repl.Follower{
			DB:         f.db,
			ApplyDelay: func(uint64) { time.Sleep(cl.lag()) },
		}
		f.fol.Store(fol)
		cl.appliers.Add(1)
		go func() {
			defer cl.appliers.Done()
			fol.Run(nc, cl.stop)
		}()
	}
	// Wait for every applier to attach before the workload starts, so no
	// session races the bootstrap handshake.
	deadline := time.Now().Add(10 * time.Second)
	for len(p.log.Status().Peers) < cfg.Followers {
		if time.Now().After(deadline) {
			cl.close()
			return nil, errors.New("followers never attached")
		}
		time.Sleep(time.Millisecond)
	}
	return cl, nil
}

func (cl *cluster) close() {
	close(cl.stop)
	cl.appliers.Wait()
	for _, f := range cl.followers {
		f.srv.Shutdown()
	}
	if cl.primary != nil {
		cl.primary.srv.Shutdown()
	}
}

// Run generates the seeded schedule and executes it, returning "" or a
// violation description.
func Run(cfg Config) string {
	cfg.fill()
	sched := GenSchedule(rand.New(rand.NewSource(cfg.Seed)), cfg)
	return RunSchedule(cfg, sched)
}

// RunSchedule executes one explicit schedule (Shrink re-enters here).
func RunSchedule(cfg Config, sched []step) string {
	cfg.fill()
	cl, err := newCluster(cfg)
	if err != nil {
		return fmt.Sprintf("cluster: %v", err)
	}
	defer cl.close()

	pc, err := client.Dial(client.Options{Addr: cl.primary.addr})
	if err != nil {
		return fmt.Sprintf("dial primary: %v", err)
	}
	defer pc.Close()
	var fcs []*client.Client
	for i, f := range cl.followers {
		fc, err := client.Dial(client.Options{Addr: f.addr})
		if err != nil {
			return fmt.Sprintf("dial follower %d: %v", i, err)
		}
		defer fc.Close()
		fcs = append(fcs, fc)
	}

	// Split the schedule per session, preserving order within each.
	perSess := make([][]step, cfg.Sessions)
	for _, st := range sched {
		if st.sess < cfg.Sessions {
			perSess[st.sess] = append(perSess[st.sess], st)
		}
	}

	violations := make(chan string, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		if len(perSess[i]) == 0 {
			continue
		}
		sess := client.NewSession(pc, fcs, cfg.Policy)
		wg.Add(1)
		go func(id int, steps []step) {
			defer wg.Done()
			if v := runSession(id, sess, steps, cfg); v != "" {
				violations <- v
			}
		}(i, perSess[i])
	}
	wg.Wait()
	select {
	case v := <-violations:
		return v
	default:
		return ""
	}
}

// runSession executes one session's steps, checking every read. It keeps
// the session's authoritative model: the exact version of every private
// key it wrote (it is the only writer) and the highest version it has
// observed per shared key.
func runSession(id int, sess *client.Session, steps []step, cfg Config) string {
	own := make([]int, cfg.Keys)    // last acknowledged version per private key
	shared := make([]int, cfg.Keys) // session 0's shared write counters
	obs := make([]int, cfg.Keys)    // highest observed version per shared key
	ctr := make([]int64, cfg.Keys)  // exact acked delta sum per private counter
	ctrLive := make([]bool, cfg.Keys)
	var nIncr int64 // drives deterministic delta derivation

	ownKey := func(k int) []byte { return []byte(fmt.Sprintf("s%02d-k%03d", id, k)) }
	// Counters use 'q' so they sort after the 'k' keyspace: stepScan's
	// limit-bounded scan of the session prefix still sees every private
	// k-key first.
	ctrKey := func(k int) []byte { return []byte(fmt.Sprintf("s%02d-q%03d", id, k)) }
	sharedKey := func(k int) []byte { return []byte(fmt.Sprintf("shared-k%03d", k)) }
	val := func(v int) []byte { return []byte(fmt.Sprintf("%08d", v)) }
	bad := func(si int, format string, args ...any) string {
		return fmt.Sprintf("session %d step %d (%s, served by %s): %s",
			id, si, steps[si], sess.LastNode(), fmt.Sprintf(format, args...))
	}
	parse := func(v []byte) (int, bool) {
		n, err := strconv.Atoi(string(v))
		return n, err == nil
	}

	// checkOwn verifies read-your-writes for one private key: the read
	// must return exactly the session's last acknowledged version.
	checkOwn := func(si, k int, v []byte, err error) string {
		want := own[k]
		switch {
		case errors.Is(err, client.ErrNotFound):
			if want != 0 {
				return bad(si, "read-your-writes violation: key %s missing, last write was version %d", ownKey(k), want)
			}
		case err != nil:
			return bad(si, "read failed: %v", err)
		default:
			got, ok := parse(v)
			if !ok {
				return bad(si, "unparseable value %q for %s", v, ownKey(k))
			}
			if got != want {
				return bad(si, "read-your-writes violation: key %s version %d, last write was version %d", ownKey(k), got, want)
			}
		}
		return ""
	}

	// checkCtr verifies read-your-increments for one private counter: the
	// session is the only writer, so the read must decode to its exact
	// acknowledged delta sum.
	checkCtr := func(si, k int, v []byte, err error) string {
		switch {
		case errors.Is(err, client.ErrNotFound):
			if ctrLive[k] {
				return bad(si, "read-your-increments violation: counter %s missing, acked sum is %d", ctrKey(k), ctr[k])
			}
		case err != nil:
			return bad(si, "counter read failed: %v", err)
		default:
			got, derr := hyperdb.DecodeCounter(v)
			if derr != nil {
				return bad(si, "counter %s holds a non-counter value (%dB)", ctrKey(k), len(v))
			}
			if got != ctr[k] {
				return bad(si, "read-your-increments violation: counter %s = %d, acked sum is %d", ctrKey(k), got, ctr[k])
			}
		}
		return ""
	}

	for si, st := range steps {
		switch st.kind {
		case stepPut, stepPutGet:
			own[st.key]++
			if err := sess.Put(ownKey(st.key), val(own[st.key])); err != nil {
				return bad(si, "put failed: %v", err)
			}
			if st.kind == stepPutGet {
				v, err := sess.Get(ownKey(st.key))
				if viol := checkOwn(si, st.key, v, err); viol != "" {
					return viol
				}
			}
		case stepGet:
			v, err := sess.Get(ownKey(st.key))
			if viol := checkOwn(si, st.key, v, err); viol != "" {
				return viol
			}
		case stepMGet:
			ks := [][]byte{
				ownKey(st.key),
				ownKey((st.key + 1) % cfg.Keys),
				ownKey((st.key + 2) % cfg.Keys),
			}
			vals, err := sess.MultiGet(ks)
			if err != nil {
				return bad(si, "mget failed: %v", err)
			}
			for j, v := range vals {
				k := (st.key + j) % cfg.Keys
				e := error(nil)
				if v == nil {
					e = client.ErrNotFound
				}
				if viol := checkOwn(si, k, v, e); viol != "" {
					return viol
				}
			}
		case stepScan:
			// The private prefix sorts contiguously, so the first Keys
			// results cover every live private key: the scan must return
			// exactly the keys this session has written, each at its last
			// acknowledged version.
			kvs, err := sess.Scan(ownKey(0)[:4], cfg.Keys)
			if err != nil {
				return bad(si, "scan failed: %v", err)
			}
			found := make(map[string]string, len(kvs))
			for _, kv := range kvs {
				if strings.HasPrefix(string(kv.Key), string(ownKey(0)[:4])) {
					found[string(kv.Key)] = string(kv.Value)
				}
			}
			for k := 0; k < cfg.Keys; k++ {
				v, here := found[string(ownKey(k))]
				switch {
				case own[k] == 0 && here:
					return bad(si, "scan returned never-written key %s", ownKey(k))
				case own[k] != 0 && !here:
					return bad(si, "read-your-writes violation: scan missing key %s (version %d)", ownKey(k), own[k])
				case own[k] != 0:
					got, ok := parse([]byte(v))
					if !ok || got != own[k] {
						return bad(si, "read-your-writes violation: scan key %s version %q, last write was version %d", ownKey(k), v, own[k])
					}
				}
			}
		case stepIncr:
			// Deltas derive from a per-session counter so a shrunk schedule
			// replays the same values; they include negatives and zero.
			nIncr++
			d := nIncr%7 - 2
			want := ctr[st.key] + d
			v, err := sess.Incr(ctrKey(st.key), d)
			if err != nil {
				return bad(si, "incr failed: %v", err)
			}
			if v != want {
				return bad(si, "incr violation: counter %s returned %d, session model %d", ctrKey(st.key), v, want)
			}
			ctr[st.key], ctrLive[st.key] = want, true
			// Immediate policy-routed read-back: the merge just committed on
			// the primary, so a replica serving this read proves the gate.
			rv, rerr := sess.Get(ctrKey(st.key))
			if viol := checkCtr(si, st.key, rv, rerr); viol != "" {
				return viol
			}
		case stepCtrGet:
			v, err := sess.Get(ctrKey(st.key))
			if viol := checkCtr(si, st.key, v, err); viol != "" {
				return viol
			}
		case stepSharedPut:
			shared[st.key]++
			if err := sess.Put(sharedKey(st.key), val(shared[st.key])); err != nil {
				return bad(si, "shared put failed: %v", err)
			}
			if obs[st.key] < shared[st.key] {
				obs[st.key] = shared[st.key]
			}
		case stepSharedGet:
			v, err := sess.Get(sharedKey(st.key))
			switch {
			case errors.Is(err, client.ErrNotFound):
				if obs[st.key] > 0 {
					return bad(si, "monotonic reads violation: key %s missing after observing version %d", sharedKey(st.key), obs[st.key])
				}
			case err != nil:
				return bad(si, "shared read failed: %v", err)
			default:
				got, ok := parse(v)
				if !ok {
					return bad(si, "unparseable value %q for %s", v, sharedKey(st.key))
				}
				if got < obs[st.key] {
					return bad(si, "monotonic reads violation: key %s version %d after observing version %d", sharedKey(st.key), got, obs[st.key])
				}
				obs[st.key] = got
			}
		}
	}
	return ""
}

// Shrink reduces a failing schedule with bounded ddmin: repeatedly remove
// chunks while the run still fails, halving chunk size when stuck. budget
// caps the number of re-runs (each spins up a fresh cluster).
func Shrink(cfg Config, sched []step, budget int) []step {
	fails := func(s []step) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return RunSchedule(cfg, s) != ""
	}
	n := 2
	for len(sched) > 1 {
		chunk := (len(sched) + n - 1) / n
		removed := false
		for start := 0; start < len(sched); start += chunk {
			end := start + chunk
			if end > len(sched) {
				end = len(sched)
			}
			cand := make([]step, 0, len(sched)-(end-start))
			cand = append(cand, sched[:start]...)
			cand = append(cand, sched[end:]...)
			if len(cand) > 0 && fails(cand) {
				sched = cand
				if n > 2 {
					n--
				}
				removed = true
				break
			}
		}
		if !removed {
			if n >= len(sched) || budget <= 0 {
				break
			}
			n *= 2
			if n > len(sched) {
				n = len(sched)
			}
		}
	}
	return sched
}
