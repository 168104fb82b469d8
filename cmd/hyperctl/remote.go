package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"hyperdb/internal/client"
)

// remote runs one wire-protocol subcommand against a hyperd at -addr. Every
// data subcommand goes through a client Session: with none of -policy,
// -followers or -token that is the plain client (primary policy, no
// followers, zero seed token); with any of them reads route per policy
// against the follower addresses and the serving node and resulting session
// token print to stderr; -token seeds the session from a token carried
// across invocations (scripts chain them for read-your-writes across
// processes).
func remote(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:4980", "hyperd address (the primary, in session mode)")
	limit := fs.Int("limit", 20, "scan: max pairs to return")
	policyName := fs.String("policy", "primary", "session read policy: primary, bounded, or any")
	readPolicy := fs.String("read-policy", "", "alias for -policy")
	followers := fs.String("followers", "", "comma-separated follower addresses for session reads")
	token := fs.String("token", "0", "seed session token from a previous invocation (SEQ or SEQ@EPOCH)")
	fs.Parse(args)
	rest := fs.Args()
	if *readPolicy != "" {
		*policyName = *readPolicy
	}
	sessionMode := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "policy", "read-policy", "followers", "token":
			sessionMode = true
		}
	})
	badArgs := func(operands string) {
		flags := "[-addr A]"
		if sessionMode {
			flags += " [-policy P] [-followers A,B] [-token N]"
		}
		fatalf("usage: hyperctl %s %s %s", cmd, flags, operands)
	}

	if cmd == "badframe" {
		badframe(*addr)
		return
	}
	c, err := client.Dial(client.Options{Addr: *addr, Conns: 1})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	switch cmd {
	case "ping", "stats":
		if sessionMode {
			fatalf("%s does not take session flags (-policy/-followers/-token)", cmd)
		}
		if cmd == "ping" {
			t0 := time.Now()
			if err := c.Ping(); err != nil {
				fatal(err)
			}
			fmt.Printf("PONG %v\n", time.Since(t0).Round(time.Microsecond))
			return
		}
		text, err := c.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}

	policy, err := client.ParseReadPolicy(*policyName)
	if err != nil {
		fatal(err)
	}
	seed, err := client.ParseToken(*token)
	if err != nil {
		fatal(err)
	}
	sess := client.NewSession(c, dialFollowers(*followers), policy)
	sess.SeedToken(seed)
	// note reports where a session-mode call landed, on stderr so scripts can
	// chain invocations; the plain client says nothing.
	note := func(read bool) {
		switch {
		case !sessionMode:
		case read:
			fmt.Fprintf(os.Stderr, "(served by %s, token %s)\n", sess.LastNode(), sess.Token())
		default:
			fmt.Fprintf(os.Stderr, "(token %s)\n", sess.Token())
		}
	}

	switch cmd {
	case "put":
		if len(rest) != 2 {
			badArgs("<key> <value>")
		}
		if err := sess.Put([]byte(rest[0]), []byte(rest[1])); err != nil {
			fatal(err)
		}
		fmt.Println("OK")
		note(false)
	case "del":
		if len(rest) != 1 {
			badArgs("<key>")
		}
		if err := sess.Delete([]byte(rest[0])); err != nil {
			fatal(err)
		}
		fmt.Println("OK")
		note(false)
	case "get":
		if len(rest) != 1 {
			badArgs("<key>")
		}
		v, err := sess.Get([]byte(rest[0]))
		if errors.Is(err, client.ErrNotFound) {
			note(true)
			fmt.Fprintln(os.Stderr, "(not found)")
			os.Exit(1)
		}
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(v, '\n'))
		note(true)
	case "incr":
		if len(rest) < 1 || len(rest) > 2 {
			badArgs("<key> [delta]")
		}
		delta := int64(1)
		if len(rest) == 2 {
			if delta, err = strconv.ParseInt(rest[1], 10, 64); err != nil {
				fatalf("bad delta %q: %v", rest[1], err)
			}
		}
		v, err := sess.Incr([]byte(rest[0]), delta)
		if err != nil {
			fatal(err)
		}
		fmt.Println(v)
		note(false)
	case "mget":
		if len(rest) == 0 {
			badArgs("<key>...")
		}
		keys := make([][]byte, len(rest))
		for i, k := range rest {
			keys[i] = []byte(k)
		}
		vals, err := sess.MultiGet(keys)
		if err != nil {
			fatal(err)
		}
		for i, k := range rest {
			if vals[i] == nil {
				fmt.Printf("%q (not found)\n", k)
			} else {
				fmt.Printf("%q %q\n", k, vals[i])
			}
		}
		note(true)
	case "scan":
		var start []byte
		if len(rest) > 1 {
			badArgs("[-limit N] [start]")
		}
		if len(rest) == 1 {
			start = []byte(rest[0])
		}
		kvs, err := sess.Scan(start, *limit)
		if err != nil {
			fatal(err)
		}
		for _, kv := range kvs {
			fmt.Printf("%q %q\n", kv.Key, kv.Value)
		}
		fmt.Fprintf(os.Stderr, "(%d pairs)\n", len(kvs))
		note(true)
	}
}

// dialFollowers dials each address of a comma-separated follower list. The
// clients live until the process exits.
func dialFollowers(list string) []*client.Client {
	if list == "" {
		return nil
	}
	var fcs []*client.Client
	for _, a := range strings.Split(list, ",") {
		fc, err := client.Dial(client.Options{Addr: strings.TrimSpace(a), Conns: 1})
		if err != nil {
			fatal(err)
		}
		fcs = append(fcs, fc)
	}
	return fcs
}

// rywCmd implements `hyperctl ryw`: a live read-your-writes probe. It
// writes n fresh keys through a session and immediately reads each back
// under the chosen policy; with -policy bounded every read must return the
// just-written value no matter how far the followers lag. It reports where
// the reads landed and exits nonzero on a stale or missing read — the
// consistency harness's core check, runnable against a real deployment.
func rywCmd(args []string) {
	fs := flag.NewFlagSet("ryw", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:4980", "primary address")
	followerList := fs.String("followers", "", "comma-separated follower addresses")
	policyName := fs.String("policy", "bounded", "session read policy: primary, bounded, or any")
	n := fs.Int("n", 20, "write/read round trips")
	prefix := fs.String("prefix", "ryw", "key prefix (keys are <prefix>-<pid>-<i>)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fatalf("usage: hyperctl ryw [-addr A] [-followers A,B] [-policy P] [-n N]")
	}
	policy, err := client.ParseReadPolicy(*policyName)
	if err != nil {
		fatal(err)
	}

	pc, err := client.Dial(client.Options{Addr: *addr, Conns: 1})
	if err != nil {
		fatal(err)
	}
	defer pc.Close()
	sess := client.NewSession(pc, dialFollowers(*followerList), policy)

	served := map[string]int{}
	stale := 0
	for i := 0; i < *n; i++ {
		key := []byte(fmt.Sprintf("%s-%d-%04d", *prefix, os.Getpid(), i))
		want := fmt.Sprintf("v%04d@%d", i, time.Now().UnixNano())
		if err := sess.Put(key, []byte(want)); err != nil {
			fatal(err)
		}
		got, err := sess.Get(key)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "hyperctl: ryw %q: %v\n", key, err)
			stale++
		case string(got) != want:
			fmt.Fprintf(os.Stderr, "hyperctl: ryw %q: got %q want %q\n", key, got, want)
			stale++
		}
		served[sess.LastNode()]++
	}
	fmt.Printf("ryw: %d round trips under policy %s (token %s)\n", *n, policy, sess.Token())
	for node, count := range served {
		fmt.Printf("  %-14s served %d\n", node, count)
	}
	fmt.Printf("  fallbacks %d (not_ready %d)\n", sess.Fallbacks(), sess.NotReady())
	if stale > 0 {
		fmt.Printf("FAILED: %d stale or failed reads\n", stale)
		os.Exit(1)
	}
	fmt.Println("OK: every read returned its own write")
}

// replCmd implements `hyperctl repl status`: fetch the server's stats text
// and render the replication section — the node's role, its log window, and
// each attached follower's acknowledged sequence and lag.
func replCmd(args []string) {
	// Accept both `repl status -addr A` and `repl -addr A status`.
	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub = args[0]
		args = args[1:]
	}
	fs := flag.NewFlagSet("repl status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:4980", "hyperd address")
	fs.Parse(args)
	if sub == "" && fs.NArg() == 1 {
		sub = fs.Arg(0)
	} else if fs.NArg() != 0 {
		fatalf("usage: hyperctl repl status [-addr A]")
	}
	if sub != "status" {
		fatalf("usage: hyperctl repl status [-addr A]")
	}

	c, err := client.Dial(client.Options{Addr: *addr, Conns: 1})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	text, err := c.Stats()
	if err != nil {
		fatal(err)
	}

	vals := map[string]string{}
	var followers [][]string
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "repl.") {
			continue
		}
		if fields[0] == "repl.follower" {
			followers = append(followers, fields[1:])
			continue
		}
		vals[fields[0]] = fields[1]
	}
	role, ok := vals["repl.role"]
	if !ok {
		fatalf("server at %s reports no replication section (old hyperd?)", *addr)
	}
	fmt.Printf("role: %s\n", role)
	if a, ok := vals["repl.applied"]; ok {
		fmt.Printf("applied: %s\n", a)
	}
	if h, ok := vals["repl.log_head"]; ok {
		fmt.Printf("log: head=%s floor=%s entries=%s pending=%s\n",
			h, vals["repl.log_floor"], vals["repl.log_entries"], vals["repl.log_pending"])
		fmt.Printf("followers: %s\n", vals["repl.followers"])
		for _, f := range followers {
			// fields: NAME acked N lag M
			if len(f) == 5 {
				fmt.Printf("  %-24s acked=%-10s lag=%s\n", f[0], f[2], f[4])
			}
		}
	} else {
		fmt.Println("replication: disabled (no log; start hyperd with -role)")
	}
}

// badframe sends bytes that are not a valid frame (a plausible length
// prefix followed by garbage that fails the CRC) and reports how the
// server reacted. A healthy hyperd drops the connection without crashing;
// the CI smoke test pings again afterwards to prove the daemon survived.
func badframe(addr string) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		fatal(err)
	}
	defer nc.Close()
	garbage := []byte{0, 0, 0, 16, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if _, err := nc.Write(garbage); err != nil {
		fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	n, err := nc.Read(buf)
	if err == nil {
		fatalf("server answered a malformed frame with %d bytes; expected a drop", n)
	}
	fmt.Println("OK: server dropped the malformed connection")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hyperctl:", err)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hyperctl: "+format+"\n", args...)
	os.Exit(1)
}
