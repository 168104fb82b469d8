package client

import (
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hyperdb/internal/wire"
)

// scriptedServer accepts connections and hands the i-th one to serve, which
// plays the server's side of the wire by hand.
func scriptedServer(t *testing.T, serve func(i int, nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(i, nc)
		}
	}()
	return ln.Addr().String()
}

func pong(nc net.Conn, id uint64) error {
	return wire.WriteFrame(nc, wire.Frame{Op: wire.OpPing, ID: id})
}

// within fails the test unless ch delivers inside five seconds.
func within(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
		return nil
	}
}

// TestReaderRoleMovesToWaitingCaller: two calls share a connection; the
// first is the reader. Answered out of order, the reader hands the second
// caller's frame over and keeps reading; answered in order, the reader
// leaves with its own frame and the caller still waiting must take the role
// over — nobody else will ever read its response off the socket.
func TestReaderRoleMovesToWaitingCaller(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		arrived := make(chan uint64)
		release := make(chan uint64)
		addr := scriptedServer(t, func(_ int, nc net.Conn) {
			defer nc.Close()
			go func() {
				for {
					f, err := wire.ReadFrame(nc, 0)
					if err != nil {
						return
					}
					arrived <- f.ID
				}
			}()
			for id := range release {
				if pong(nc, id) != nil {
					return
				}
			}
		})
		c, err := Dial(Options{Addr: addr, Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		var ids [2]uint64
		var done [2]chan error
		for i := range done {
			done[i] = make(chan error, 1)
			go func(ch chan error) { ch <- c.Ping() }(done[i])
			ids[i] = <-arrived // the request is on the wire before the next call starts
		}
		for _, i := range order {
			release <- ids[i]
			if err := within(t, "answered call", done[i]); err != nil {
				t.Fatalf("order %v: call %d: %v", order, i, err)
			}
		}
		close(release)
		c.Close()
	}
}

// TestCloseFailsEveryPendingCall: the reader is blocked on the socket and
// two more calls wait on it when the client closes; all three fail with
// ErrClosed, promptly.
func TestCloseFailsEveryPendingCall(t *testing.T) {
	arrived := make(chan struct{})
	addr := scriptedServer(t, func(_ int, nc net.Conn) {
		defer nc.Close()
		for {
			if _, err := wire.ReadFrame(nc, 0); err != nil {
				return
			}
			arrived <- struct{}{} // never answered
		}
	})
	c, err := Dial(Options{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for i := 0; i < cap(done); i++ {
		go func() { done <- c.Ping() }()
		<-arrived
	}
	c.Close()
	for i := 0; i < cap(done); i++ {
		if err := within(t, "pending call after Close", done); !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call %d: %v, want ErrClosed", i, err)
		}
	}
}

// TestIdleKilledConnectionRedialsTransparently: the server answers one call
// and then closes the connection. Once its FIN has reached the client, the
// next call must notice before writing — redial, succeed, and surface
// nothing. Without the idle check the request is written into the dead
// socket and the call fails on the end of stream.
func TestIdleKilledConnectionRedialsTransparently(t *testing.T) {
	addr := scriptedServer(t, func(i int, nc net.Conn) {
		defer nc.Close()
		for {
			f, err := wire.ReadFrame(nc, 0)
			if err != nil || pong(nc, f.ID) != nil {
				return
			}
			if i == 0 {
				return // the first connection dies after one answer
			}
		}
	})
	var dials atomic.Int64
	var first *net.TCPConn
	c, err := Dial(Options{
		Addr: addr, Conns: 1, RedialAttempts: 1,
		DialFunc: func(a string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", a, timeout)
			if err == nil && dials.Add(1) == 1 {
				first = nc.(*net.TCPConn)
			}
			return nc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}

	// Wait for the FIN itself, not for a guess at how long it takes: peek at
	// the idle socket until it reports end of stream.
	raw, err := first.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var n int
		var rerr error
		raw.Read(func(fd uintptr) bool {
			n, _, rerr = syscall.Recvfrom(int(fd), make([]byte, 1), syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		})
		if n == 0 && rerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server's close never reached the client: n=%d err=%v", n, rerr)
		}
	}

	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d after the idle connection died: %v", i, err)
		}
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want 2 (one transparent redial)", got)
	}
}

// TestIdleProbeCannotEatAnotherCallersResponse: caller B finds no call in
// flight and is about to probe the idle socket when caller C starts a call on
// the same connection. Were the probe to run after B had let go of the
// connection's lock, C would become a waiter, write, be answered, and the
// probe's one-byte read would take the first byte of C's response for
// "bytes nobody asked for" and close the connection under it. The hook parks
// B at the probe until the server has answered somebody (the broken order) or
// C has visibly had time to and could not (the probe excludes it); either
// way both calls must succeed on the one connection.
func TestIdleProbeCannotEatAnotherCallersResponse(t *testing.T) {
	answered := make(chan struct{}, 2)
	var dials atomic.Int64
	addr := scriptedServer(t, func(_ int, nc net.Conn) {
		defer nc.Close()
		dials.Add(1)
		for {
			f, err := wire.ReadFrame(nc, 0)
			if err != nil || pong(nc, f.ID) != nil {
				return
			}
			answered <- struct{}{}
		}
	})
	c, err := Dial(Options{Addr: addr, Conns: 1, RedialAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	second := make(chan error, 1)
	var parked atomic.Bool
	idleProbeHook = func() {
		if parked.Swap(true) {
			return
		}
		go func() { second <- c.Ping() }()
		select {
		case <-answered:
			// C's response is on its way; give it time to reach the socket.
			time.Sleep(20 * time.Millisecond)
		case <-time.After(100 * time.Millisecond):
		}
	}
	defer func() { idleProbeHook = nil }()

	if err := c.Ping(); err != nil {
		t.Fatalf("the probing call: %v", err)
	}
	if err := within(t, "the call that arrived during the probe", second); err != nil {
		t.Fatalf("the call that arrived during the probe: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want 1: the probe killed a live connection", n)
	}
}
