package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hyperdb"
	"hyperdb/internal/client"
	"hyperdb/internal/repl"
	"hyperdb/internal/server"
	"hyperdb/internal/wire"
)

// startGroup runs one replication group in process: a primary with
// synchronous acks, so a follower read issued after a write's ack is never
// stale, and one follower applying from it.
func startGroup(t *testing.T) (primary, follower string) {
	t.Helper()
	open := func(isFollower bool, tee *repl.Log) *hyperdb.DB {
		opts := hyperdb.Options{
			Unthrottled: true, NVMeCapacity: 32 << 20, SATACapacity: 1 << 30,
			Partitions: 2, CacheBytes: 2 << 20, Follower: isFollower,
		}
		if tee != nil {
			opts.Tee = tee
		}
		db, err := hyperdb.Open(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	serve := func(ln net.Listener, cfg server.Config) {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Shutdown() })
	}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return ln
	}

	pln, fln := listen(), listen()
	rlog := repl.NewLog(repl.LogConfig{SyncAck: true})
	pdb := open(false, rlog)
	serve(pln, server.Config{
		DB: pdb, OwnDB: true, Repl: &repl.Primary{DB: pdb, Log: rlog}, Epoch: rlog.Epoch,
	})

	fdb := open(true, nil)
	fol := &repl.Follower{DB: fdb}
	serve(fln, server.Config{DB: fdb, OwnDB: true, Epoch: fol.Epoch})
	nc, err := net.Dial("tcp", pln.Addr().String())
	if err != nil {
		t.Fatalf("follower dial: %v", err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { fol.Run(nc, stop); close(done) }()
	t.Cleanup(func() { close(stop); <-done })
	for deadline := time.Now().Add(10 * time.Second); len(rlog.Status().Peers) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached")
		}
	}
	return pln.Addr().String(), fln.Addr().String()
}

// kvOps is what Client and Session both offer.
type kvOps interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	Incr(key []byte, delta int64) (int64, error)
	MultiGet(keys [][]byte) ([][]byte, error)
	WriteBatch(ops []wire.BatchOp) error
	Scan(start []byte, limit int) ([]wire.KV, error)
}

// seqClient drives a Client through its *Seq forms the way a session would:
// every read gated on, and every answer folded into, one running token.
type seqClient struct {
	c   *client.Client
	tok client.Token
}

func (s *seqClient) saw(t client.Token, err error) error {
	if (err == nil || errors.Is(err, client.ErrNotFound)) && t.Seq > s.tok.Seq {
		s.tok = t
	}
	return err
}
func (s *seqClient) Put(k, v []byte) error {
	t, err := s.c.PutSeq(k, v)
	return s.saw(t, err)
}
func (s *seqClient) Get(k []byte) ([]byte, error) {
	v, t, err := s.c.GetSeq(k, s.tok)
	return v, s.saw(t, err)
}
func (s *seqClient) Delete(k []byte) error {
	t, err := s.c.DeleteSeq(k)
	return s.saw(t, err)
}
func (s *seqClient) Incr(k []byte, d int64) (int64, error) {
	v, t, err := s.c.IncrSeq(k, d)
	return v, s.saw(t, err)
}
func (s *seqClient) MultiGet(ks [][]byte) ([][]byte, error) {
	vs, t, err := s.c.MultiGetSeq(ks, s.tok)
	return vs, s.saw(t, err)
}
func (s *seqClient) WriteBatch(ops []wire.BatchOp) error {
	t, err := s.c.WriteBatchSeq(ops)
	return s.saw(t, err)
}
func (s *seqClient) Scan(start []byte, limit int) ([]wire.KV, error) {
	kvs, t, err := s.c.ScanSeq(start, limit, s.tok)
	return kvs, s.saw(t, err)
}

// TestEveryOpThroughEveryClient runs one script of every data op through
// each way of issuing it — the plain Client, its *Seq forms, a Session under
// each read policy — against one primary and one follower. Every path must produce the same answers, and the token a
// path observes must never move backward.
func TestEveryOpThroughEveryClient(t *testing.T) {
	primary, follower := startGroup(t)
	dial := func(addr string) *client.Client {
		c, err := client.Dial(client.Options{Addr: addr, Conns: 1})
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	pc, fc := dial(primary), dial(follower)

	type path struct {
		name  string
		ops   kvOps
		token func() client.Token // nil: the path keeps none
		after func(key []byte)    // nil: nothing more to check
	}
	session := func(p client.ReadPolicy) path {
		s := client.NewSession(pc, []*client.Client{fc}, p)
		// The rotation covers follower and primary in two reads; only the
		// primary policy may leave the follower out, and nothing fell back.
		return path{"session/" + p.String(), s, s.Token, func(key []byte) {
			served := map[string]bool{}
			for i := 0; i < 2; i++ {
				if _, err := s.Get(key); err != nil {
					t.Fatalf("session/%s: get: %v", p, err)
				}
				served[s.LastNode()] = true
			}
			if served["follower[0]"] != (p != client.ReadPrimary) || s.Fallbacks() != 0 {
				t.Fatalf("session/%s: reads served by %v with %d fallbacks", p, served, s.Fallbacks())
			}
		}}
	}
	sc := &seqClient{c: pc}
	paths := []path{
		{"client", pc, nil, nil},
		{"client-seq", sc, func() client.Token { return sc.tok }, nil},
		session(client.ReadPrimary), session(client.ReadBounded), session(client.ReadAny),
	}

	show := func(v []byte, err error) string {
		switch {
		case errors.Is(err, client.ErrNotFound):
			return "(not found)"
		case err != nil:
			return "error: " + err.Error()
		case v == nil:
			return "(nil)"
		}
		return fmt.Sprintf("%q", v)
	}
	status := func(err error) string { return show([]byte("ok"), err) }

	var want []string
	for pi, p := range paths {
		prefix := fmt.Sprintf("p%d-", pi)
		k := func(name string) []byte { return []byte(prefix + name) }
		var last client.Token
		var got []string
		observe := func(what string) {
			t.Helper()
			if p.token == nil {
				return
			}
			tok := p.token()
			if tok.Epoch == last.Epoch && tok.Seq < last.Seq || last.Epoch != 0 && tok.Epoch != last.Epoch {
				t.Fatalf("%s: token moved backward after %s: %v -> %v", p.name, what, last, tok)
			}
			last = tok
		}
		step := func(what, result string) {
			t.Helper()
			got = append(got, what+" = "+result)
			observe(what)
		}

		step("put a", status(p.ops.Put(k("a"), []byte("1"))))
		step("get a", show(p.ops.Get(k("a"))))
		step("overwrite a", status(p.ops.Put(k("a"), []byte("2"))))
		step("get a again", show(p.ops.Get(k("a"))))
		step("delete a", status(p.ops.Delete(k("a"))))
		step("get deleted a", show(p.ops.Get(k("a"))))
		step("delete absent b", status(p.ops.Delete(k("b"))))
		n, err := p.ops.Incr(k("c"), 5)
		step("incr c 5", fmt.Sprint(n, err))
		n, err = p.ops.Incr(k("c"), -2)
		step("incr c -2", fmt.Sprint(n, err))
		step("batch", status(p.ops.WriteBatch([]wire.BatchOp{
			{Key: k("x"), Value: []byte("1")}, {Key: k("y"), Value: []byte{}},
			{Key: k("z"), Delete: true}, {Key: k("c"), Merge: true, Delta: 10},
		})))
		vals, err := p.ops.MultiGet([][]byte{k("x"), k("y"), k("z"), k("a"), k("c")})
		if err != nil || len(vals) != 5 {
			t.Fatalf("%s: mget: %d values, %v", p.name, len(vals), err)
		}
		for i, name := range []string{"x", "y", "z", "a"} {
			step("mget "+name, show(vals[i], nil))
		}
		step("mget c", show(vals[4], nil))
		step("get c", show(p.ops.Get(k("c"))))
		if !bytes.Equal(vals[4], hyperdb.EncodeCounter(13)) {
			t.Fatalf("%s: counter = %x, want 13", p.name, vals[4])
		}
		if p.token != nil && (last.Seq == 0 || last.Epoch == 0) {
			t.Fatalf("%s: token never qualified: %v", p.name, last)
		}

		kvs, err := p.ops.Scan([]byte(prefix), 16)
		var mine []string
		for _, kv := range kvs {
			if name, ok := strings.CutPrefix(string(kv.Key), prefix); ok {
				mine = append(mine, name)
			}
		}
		if err != nil || strings.Join(mine, ",") != "c,x,y" {
			t.Fatalf("%s: scan = %v, %v; want c, x, y", p.name, mine, err)
		}
		observe("scan")
		if p.after != nil {
			p.after(k("c"))
		}

		if want == nil {
			want = got
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s disagrees with %s:\n got: %s\nwant: %s", p.name, paths[0].name, strings.Join(got, "\n      "), strings.Join(want, "\n      "))
		}
	}
}
