package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/cluster"
	"hyperdb/internal/device"
	"hyperdb/internal/repl"
	"hyperdb/internal/wire"
)

// newClusterEnv builds an n-group sharded cluster over real TCP. Listeners
// are bound first so every node's seed map can name every address; each node
// is then a full serving stack — engine with a teed replication log (slot
// handoff streams from it), server with the node's ownership state.
func newClusterEnv(t *testing.T, n, slots int) []*testEnv {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	envs := make([]*testEnv, n)
	for i := 0; i < n; i++ {
		m, err := cluster.New(slots, addrs)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		node, err := cluster.NewNode(m, uint32(i))
		if err != nil {
			t.Fatalf("cluster.NewNode: %v", err)
		}
		rlog := repl.NewLog(repl.LogConfig{})
		opts := hyperdb.Options{
			NVMeDevice:     device.New(device.UnthrottledProfile("nvme", 32<<20)),
			SATADevice:     device.New(device.UnthrottledProfile("sata", 1<<30)),
			Partitions:     4,
			CacheBytes:     4 << 20,
			MigrationBatch: 256 << 10,
			Tee:            rlog,
		}
		db, err := hyperdb.Open(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		cfg := Config{
			DB:          db,
			OwnDB:       true,
			MaxInflight: 64,
			ReadWait:    2 * time.Second,
			Logf:        t.Logf,
			Repl:        &repl.Primary{DB: db, Log: rlog},
			Epoch:       rlog.Epoch,
			Cluster:     node,
		}
		srv, err := New(cfg)
		if err != nil {
			db.Close()
			t.Fatalf("server.New: %v", err)
		}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Shutdown() })
		envs[i] = &testEnv{srv: srv, addr: addrs[i], db: db, opts: opts}
	}
	return envs
}

func dialClusterTest(t *testing.T, seeds ...string) *client.Cluster {
	t.Helper()
	cc, err := client.DialCluster(client.ClusterOptions{Seeds: seeds})
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// keysOwnedBy generates count distinct keys whose slots belong to group g
// under m. Calls with different groups over the same tag partition the same
// key sequence, so the sets never collide.
func keysOwnedBy(t *testing.T, m *cluster.Map, g uint32, count int, tag string) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; len(out) < count; i++ {
		if i > 100_000 {
			t.Fatalf("no keys hash to group %d", g)
		}
		k := []byte(fmt.Sprintf("%s-%04d", tag, i))
		if m.OwnerGroup(m.SlotOf(k)) == g {
			out = append(out, k)
		}
	}
	return out
}

// TestClusterHandoffUnderLoad moves every slot of group 0 onto group 1 while
// a routing client keeps writing and reading, then proves the flip: both
// nodes agree on the successor map (no slot double-owned), every acked key
// reads back through a fresh client, and a stale client is bounced with the
// newer map.
func TestClusterHandoffUnderLoad(t *testing.T) {
	envs := newClusterEnv(t, 2, 16)
	cc := dialClusterTest(t, envs[0].addr, envs[1].addr)

	const n = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("ho-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }
	for i := 0; i < n; i++ {
		if err := cc.Put(key(i), val(i)); err != nil {
			t.Fatalf("load put: %v", err)
		}
	}
	seed := cc.Map()
	if seed.Version != 1 {
		t.Fatalf("seed map version %d, want 1", seed.Version)
	}
	moved := seed.SlotsOf(0)

	// Keep traffic flowing through the routing client for the whole
	// migration; bounces and parks must stay invisible to the caller.
	stop := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				loadDone <- nil
				return
			default:
			}
			k := key(i % n)
			if err := cc.Put(k, val(i%n)); err != nil {
				loadDone <- fmt.Errorf("live put %s: %w", k, err)
				return
			}
			if v, err := cc.Get(k); err != nil || string(v) != string(val(i%n)) {
				loadDone <- fmt.Errorf("live get %s = %q, %v", k, v, err)
				return
			}
		}
	}()

	tc := dialTest(t, envs[1], 1)
	nm, err := tc.Handoff(moved)
	close(stop)
	if err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}

	if nm.Version != 2 {
		t.Fatalf("post-flip map version %d, want 2", nm.Version)
	}
	for _, s := range moved {
		if nm.OwnerGroup(s) != 1 {
			t.Fatalf("slot %d still owned by group %d", s, nm.OwnerGroup(s))
		}
	}
	m0 := envs[0].srv.cfg.Cluster.Map()
	m1 := envs[1].srv.cfg.Cluster.Map()
	if m0.Version != 2 || m1.Version != 2 {
		t.Fatalf("nodes disagree on version: %d vs %d", m0.Version, m1.Version)
	}
	for s := range m0.Slots {
		if m0.Slots[s] != m1.Slots[s] {
			t.Fatalf("slot %d double-owned: node0 says group %d, node1 says %d",
				s, m0.Slots[s], m1.Slots[s])
		}
	}

	// Every acked key reads back through a client that never saw the old map.
	cc2 := dialClusterTest(t, envs[1].addr)
	for i := 0; i < n; i++ {
		v, err := cc2.Get(key(i))
		if err != nil || string(v) != string(val(i)) {
			t.Fatalf("post-handoff get %s = %q, %v", key(i), v, err)
		}
	}

	// A client still holding the seed map is bounced with the successor.
	movedKey := keysOwnedBy(t, seed, 0, 1, "ho")[0]
	sc := dialTest(t, envs[0], 1)
	_, err = sc.Get(movedKey)
	var ws *client.WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("stale read of %s: %v, want WrongShardError", movedKey, err)
	}
	if ws.Map.Version != 2 {
		t.Fatalf("bounce carried map version %d, want 2", ws.Map.Version)
	}
	if envs[1].srv.Stats().Handoffs.Load() != 1 {
		t.Fatalf("target handoffs counter = %d, want 1", envs[1].srv.Stats().Handoffs.Load())
	}
}

// TestClusterHandoffSourceCrash kills the source node the moment the flip
// commits: every key acked before the migration must survive on the target,
// which now owns the whole keyspace.
func TestClusterHandoffSourceCrash(t *testing.T) {
	envs := newClusterEnv(t, 2, 16)
	cc := dialClusterTest(t, envs[0].addr, envs[1].addr)

	const n = 150
	key := func(i int) []byte { return []byte(fmt.Sprintf("cr-%04d", i)) }
	for i := 0; i < n; i++ {
		if err := cc.Put(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("load put: %v", err)
		}
	}

	tc := dialTest(t, envs[1], 1)
	if _, err := tc.Handoff(cc.Map().SlotsOf(0)); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if err := envs[0].srv.Shutdown(); err != nil {
		t.Fatalf("source shutdown: %v", err)
	}

	c1 := dialTest(t, envs[1], 1)
	for i := 0; i < n; i++ {
		v, err := c1.Get(key(i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %s lost with the source: %q, %v", key(i), v, err)
		}
	}
}

// TestClusterHandoffRejected exercises the abort path: a handoff naming
// slots the target already owns has no source to pull from and must fail
// cleanly, leaving the map and serving untouched.
func TestClusterHandoffRejected(t *testing.T) {
	envs := newClusterEnv(t, 2, 16)
	cc := dialClusterTest(t, envs[0].addr)

	tc := dialTest(t, envs[1], 1)
	owned := cc.Map().SlotsOf(1)
	if _, err := tc.Handoff(owned[:1]); err == nil {
		t.Fatal("handoff of already-owned slots succeeded")
	}
	if got := envs[1].srv.cfg.Cluster.Map().Version; got != 1 {
		t.Fatalf("failed handoff bumped the map to version %d", got)
	}
	if err := cc.Put([]byte("after"), []byte("ok")); err != nil {
		t.Fatalf("cluster stopped serving after rejected handoff: %v", err)
	}
	if envs[1].srv.Stats().HandoffsFailed.Load() == 0 {
		t.Fatal("failed handoff not counted")
	}
}

// TestClusterWrongShardRetryStorm flips one slot back and forth between the
// groups with client traffic against that slot after every flip. The routing
// client must converge after each flip with a bounded number of bounces and
// map refetches — a bounce carries the newer map, so chasing a churning map
// costs about one retry per flip, not a storm.
func TestClusterWrongShardRetryStorm(t *testing.T) {
	envs := newClusterEnv(t, 2, 8)
	cc := dialClusterTest(t, envs[0].addr, envs[1].addr)

	m := cc.Map()
	slot := m.SlotsOf(0)[0]
	var keys [][]byte
	for i := 0; len(keys) < 10; i++ {
		k := []byte(fmt.Sprintf("storm-%04d", i))
		if m.SlotOf(k) == slot {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := cc.Put(k, []byte("seed")); err != nil {
			t.Fatalf("seed put: %v", err)
		}
	}

	ctls := []*client.Client{dialTest(t, envs[0], 1), dialTest(t, envs[1], 1)}
	const rounds = 6
	for r := 0; r < rounds; r++ {
		target := (r + 1) % 2
		if _, err := ctls[target].Handoff([]uint32{slot}); err != nil {
			t.Fatalf("flip %d: %v", r, err)
		}
		for j, k := range keys {
			if j%2 == 0 {
				if err := cc.Put(k, []byte(fmt.Sprintf("r%d", r))); err != nil {
					t.Fatalf("flip %d put %s: %v", r, k, err)
				}
			} else if _, err := cc.Get(k); err != nil {
				t.Fatalf("flip %d get %s: %v", r, k, err)
			}
		}
	}

	retries, refetches := cc.Retries(), cc.Refetches()
	if retries == 0 {
		t.Fatal("no wrong-shard bounces despite a churning map")
	}
	if retries > rounds*4 {
		t.Fatalf("retry storm: %d bounces over %d flips", retries, rounds)
	}
	if refetches > rounds {
		t.Fatalf("refetch storm: %d refetches over %d flips", refetches, rounds)
	}
	final := cc.Map()
	if final.Version != rounds+1 {
		t.Fatalf("final map version %d, want %d", final.Version, rounds+1)
	}
}

// TestClusterFanoutRefetchesPastStaleNode: a node that lost its map (it
// restarted from its seed map) bounces keys with a map no newer than the
// client's, which teaches the client nothing. The single-key path always
// escaped that by refetching the map from another group after two such
// bounces; the multi-key fan-out ignored whether a bounce taught it anything,
// burned MaxRetries against the stale node and failed. Both now share one
// loop and one rule.
func TestClusterFanoutRefetchesPastStaleNode(t *testing.T) {
	envs := newClusterEnv(t, 2, 8)
	n0 := envs[0].srv.cfg.Cluster
	v1 := n0.Map()
	moved := v1.SlotsOf(0)[:1]
	// Group 0 has seen its slot leave (v2) and come back (v3); group 1 missed
	// both and still serves v1, under which the slot is group 0's.
	v2, err := v1.Reassign(moved, 1)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := v2.Reassign(moved, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !n0.Install(v2) {
		t.Fatal("v2 not installed")
	}
	// Two clients learn v2 — the slot is group 1's — just before v3 lands.
	writer, reader := dialClusterTest(t, envs[0].addr), dialClusterTest(t, envs[0].addr)
	if !n0.Install(v3) {
		t.Fatal("v3 not installed")
	}
	if got := writer.Map().Version; got != v2.Version {
		t.Fatalf("client seeded with map v%d, want v%d", got, v2.Version)
	}

	var inMoved, inOne [][]byte
	for i := 0; len(inMoved) < 3 || len(inOne) < 3; i++ {
		k := []byte(fmt.Sprintf("stale-%04d", i))
		switch slot := v1.SlotOf(k); {
		case slot == moved[0]:
			inMoved = append(inMoved, k)
		case v1.OwnerGroup(slot) == 1:
			inOne = append(inOne, k)
		}
	}
	keys := append(append([][]byte{}, inMoved[:3]...), inOne[:3]...)
	var ops []wire.BatchOp
	for _, k := range keys {
		ops = append(ops, wire.BatchOp{Key: k, Value: append([]byte("v-"), k...)})
	}
	if err := writer.WriteBatch(ops); err != nil {
		t.Fatalf("batch across a stale node: %v", err)
	}
	vals, err := reader.MultiGet(keys)
	if err != nil {
		t.Fatalf("multiget across a stale node: %v", err)
	}
	for i, k := range keys {
		if string(vals[i]) != "v-"+string(k) {
			t.Fatalf("multiget[%d] (%s) = %q", i, k, vals[i])
		}
	}
	for _, cc := range []*client.Cluster{writer, reader} {
		if got := cc.Map().Version; got != v3.Version {
			t.Fatalf("client at map v%d afterwards, want v%d", got, v3.Version)
		}
		if cc.Refetches() == 0 {
			t.Fatal("recovered without refetching: the stale node's bounce cannot have taught the client v3")
		}
	}
}

// TestClusterSessionPerShardTokens drives session consistency across two
// shards: a batch straddling both groups must fold each group's applied
// position into that group's own token (each shard mints an independent
// sequence/epoch line), reads gate per shard, and writes to one shard must
// not advance the other's token.
func TestClusterSessionPerShardTokens(t *testing.T) {
	envs := newClusterEnv(t, 2, 16)
	cc := dialClusterTest(t, envs[0].addr, envs[1].addr)
	m := cc.Map()
	k0 := keysOwnedBy(t, m, 0, 3, "sess")
	k1 := keysOwnedBy(t, m, 1, 3, "sess")
	all := append(append([][]byte{}, k0...), k1...)

	sess := client.NewClusterSession(cc)
	var ops []wire.BatchOp
	for _, k := range all {
		ops = append(ops, wire.BatchOp{Key: k, Value: append([]byte("b-"), k...)})
	}
	if err := sess.WriteBatch(ops); err != nil {
		t.Fatalf("straddling batch: %v", err)
	}

	toks := sess.Tokens()
	if len(toks) != 2 {
		t.Fatalf("want one token per group, got %v", toks)
	}
	t0, t1 := toks[m.Groups[0]], toks[m.Groups[1]]
	if t0.Seq == 0 || t0.Epoch == 0 || t1.Seq == 0 || t1.Epoch == 0 {
		t.Fatalf("unqualified shard tokens: %v / %v", t0, t1)
	}
	if t0.Epoch == t1.Epoch {
		t.Fatalf("distinct shards share epoch %d", t0.Epoch)
	}

	// Read-your-writes holds on both shards, gated per group.
	for _, k := range all {
		v, err := sess.Get(k)
		if err != nil || string(v) != "b-"+string(k) {
			t.Fatalf("session get %s = %q, %v", k, v, err)
		}
	}

	// A MultiGet straddling shards reassembles positionally.
	mixed := [][]byte{k1[0], k0[0], k1[1], k0[1]}
	vals, err := sess.MultiGet(mixed)
	if err != nil {
		t.Fatalf("straddling mget: %v", err)
	}
	for i, k := range mixed {
		if string(vals[i]) != "b-"+string(k) {
			t.Fatalf("mget[%d] (%s) = %q", i, k, vals[i])
		}
	}

	// A write to shard 0 advances only shard 0's token.
	pre := sess.Tokens()
	if err := sess.Put(k0[0], []byte("x")); err != nil {
		t.Fatalf("put: %v", err)
	}
	post := sess.Tokens()
	if post[m.Groups[0]].Seq <= pre[m.Groups[0]].Seq {
		t.Fatalf("shard 0 token did not advance: %v -> %v", pre[m.Groups[0]], post[m.Groups[0]])
	}
	if post[m.Groups[1]] != pre[m.Groups[1]] {
		t.Fatalf("untouched shard's token moved: %v -> %v", pre[m.Groups[1]], post[m.Groups[1]])
	}

	// One shard's token is refused — not silently clamped — by the other:
	// shard 1 cannot order shard 0's epoch. (This is why the tokens are kept
	// per group.)
	c1 := dialTest(t, envs[1], 1)
	if _, _, err := c1.GetSeq(k1[0], post[m.Groups[0]]); !errors.Is(err, client.ErrNotReady) {
		t.Fatalf("cross-shard token get: %v, want ErrNotReady", err)
	}
}

// TestFlipWaitsForCheckedWrite parks a write's cycle after it checked its key
// under the old map and before it applied, then runs a handoff of the key's
// slot. The source installs the successor map while the write is parked, so
// only the flip barrier keeps it from sending the flip before the write is in
// the replication log. The flip must wait for the write, and the write must
// reach the target.
func TestFlipWaitsForCheckedWrite(t *testing.T) {
	envs := newClusterEnv(t, 2, 16)
	m := envs[0].srv.cfg.Cluster.Map()
	key := keysOwnedBy(t, m, 0, 1, "barrier")[0]
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(batch []*request) {
		for _, r := range batch {
			if r.op == wire.OpPut && string(r.key) == string(key) {
				once.Do(func() { close(parked) })
				<-release
			}
		}
	}
	envs[0].srv.checked.Store(&hook)

	putDone := make(chan error, 1)
	c0 := dialTest(t, envs[0], 1)
	go func() { putDone <- c0.Put(key, []byte("acked")) }()
	<-parked

	handoffDone := make(chan error, 1)
	tc := dialTest(t, envs[1], 1)
	go func() {
		_, err := tc.Handoff([]uint32{m.SlotOf(key)})
		handoffDone <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); envs[0].srv.cfg.Cluster.Map().Version == m.Version; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the source never installed the successor map")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-handoffDone:
		close(release)
		t.Fatalf("the flip was sent while a write that checked the old map had not applied (handoff err %v)", err)
	case <-time.After(300 * time.Millisecond):
	}
	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := <-handoffDone; err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if v, err := dialTest(t, envs[1], 1).Get(key); err != nil || string(v) != "acked" {
		t.Fatalf("the acked write did not reach the target: %q, %v", v, err)
	}
}
