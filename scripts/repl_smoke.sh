#!/usr/bin/env bash
# repl_smoke.sh — end-to-end replication smoke: build hyperd + hyperctl,
# start a sync-ack primary and a follower replicating from it, run a
# pipelined load, verify session-consistent follower reads (read-your-writes
# probe plus a token-gated staleness assertion), SIGKILL the primary
# mid-flight, promote the follower with SIGHUP, and require every
# acknowledged key to be readable from the promoted node. Exit 0 means
# failover lost nothing that was acked and no session read was ever stale.
#
# A second act covers anti-entropy rejoin: a -anti-entropy pair where the
# follower is SIGSTOPped off the retained window while a small set of keys
# churns, then resumed — the redial must repair via the Merkle conversation,
# moving fewer bytes than the full-snapshot baseline (a fresh follower
# attached to the same primary) and converging byte-identically.
set -euo pipefail
cd "$(dirname "$0")/.."

# The default ports sit below Linux's ephemeral range (32768-60999): the
# kernel hands ports in that range to outgoing connections, one that drew a
# listener's port sits in TIME_WAIT for 60 s after it closes, and hyperd then
# dies with "address already in use" — which is what happened whenever the
# test suite or a benchmark ran on loopback just before this script.
PRIMARY="${HYPERD_PRIMARY:-127.0.0.1:29810}"
FOLLOWER="${HYPERD_FOLLOWER:-127.0.0.1:29811}"
AE_PRIMARY="${HYPERD_AE_PRIMARY:-127.0.0.1:29812}"
AE_FOLLOWER="${HYPERD_AE_FOLLOWER:-127.0.0.1:29813}"
AE_FRESH="${HYPERD_AE_FRESH:-127.0.0.1:29814}"
BIN=$(mktemp -d)
PPID_D=""
FPID_D=""
APID_D=""
AFPID_D=""
AXPID_D=""
cleanup() {
  [ -n "$PPID_D" ] && kill -9 "$PPID_D" 2>/dev/null || true
  [ -n "$FPID_D" ] && kill -9 "$FPID_D" 2>/dev/null || true
  [ -n "$AFPID_D" ] && kill -CONT "$AFPID_D" 2>/dev/null || true
  [ -n "$APID_D" ] && kill -9 "$APID_D" 2>/dev/null || true
  [ -n "$AFPID_D" ] && kill -9 "$AFPID_D" 2>/dev/null || true
  [ -n "$AXPID_D" ] && kill -9 "$AXPID_D" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/hyperd" ./cmd/hyperd
go build -o "$BIN/hyperctl" ./cmd/hyperctl

"$BIN/hyperd" -addr "$PRIMARY" -role primary -repl-sync -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
PPID_D=$!
"$BIN/hyperd" -addr "$FOLLOWER" -role follower -upstream "$PRIMARY" -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
FPID_D=$!

pctl() { "$BIN/hyperctl" "$1" -addr "$PRIMARY" "${@:2}"; }
fctl() { "$BIN/hyperctl" "$1" -addr "$FOLLOWER" "${@:2}"; }

wait_up() { # wait_up <name> <pid> <ctl-fn>
  for i in $(seq 1 100); do
    if "$3" ping >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then echo "$1 died during startup" >&2; exit 1; fi
    sleep 0.1
  done
  echo "$1 never became reachable" >&2; exit 1
}
wait_up primary "$PPID_D" pctl
wait_up follower "$FPID_D" fctl

echo "== follower attaches and roles report =="
for i in $(seq 1 100); do
  if pctl repl status | grep -q '^followers: 1$'; then break; fi
  sleep 0.1
  if [ "$i" = 100 ]; then echo "follower never attached" >&2; pctl repl status >&2; exit 1; fi
done
pctl repl status | grep -q '^role: primary$'
fctl repl status | grep -q '^role: follower$'

echo "== follower rejects foreground writes =="
if fctl put nope nope >/dev/null 2>&1; then
  echo "follower accepted a foreground write" >&2; exit 1
fi

echo "== pipelined load into the primary (sync-ack) =="
LOAD_PIDS=()
for i in $(seq 1 6); do
  ( for j in $(seq 1 25); do pctl put "rk-$i-$j" "rv-$i-$j" >/dev/null; done ) &
  LOAD_PIDS+=($!)
done
for pid in "${LOAD_PIDS[@]}"; do wait "$pid"; done
pctl del rk-1-1

echo "== lag converges to 0 after load stops =="
for i in $(seq 1 100); do
  if pctl repl status | grep -q 'lag=0$'; then break; fi
  sleep 0.1
  if [ "$i" = 100 ]; then echo "lag never converged" >&2; pctl repl status >&2; exit 1; fi
done

echo "== follower serves session reads (read-your-writes over the wire) =="
# 25 put-then-read round trips through one session under the bounded
# policy: reads spread across follower and primary, follower reads gated on
# the session token. Any stale read fails the probe.
"$BIN/hyperctl" ryw -addr "$PRIMARY" -followers "$FOLLOWER" -policy bounded -n 25

echo "== staleness assertion: token-gated follower read returns the write =="
# Write through a session (capturing the token), then read with a fresh
# session seeded from that token. The first read of a fresh session always
# routes to the follower, which must serve the just-written value — the
# gate holds it until the write has applied — and say so on stderr.
# Tokens are epoch-qualified (SEQ@EPOCH); carry the whole thing so the
# lineage check is exercised end to end, and require the epoch half.
TOK=$("$BIN/hyperctl" put -addr "$PRIMARY" -policy bounded stale-probe v2 2>&1 >/dev/null | sed -n 's/.*token \([0-9]*@[0-9]*\).*/\1/p')
[ -n "$TOK" ] || { echo "session put printed no epoch-qualified token" >&2; exit 1; }
got=$("$BIN/hyperctl" get -addr "$PRIMARY" -followers "$FOLLOWER" -policy bounded -token "$TOK" stale-probe 2>"$BIN/get.err")
if [ "$got" != "v2" ]; then
  echo "stale follower read: got '$got', want 'v2' (token $TOK)" >&2; exit 1
fi
grep -q 'served by follower\[0\]' "$BIN/get.err" || {
  echo "token-gated read was not served by the follower:" >&2
  cat "$BIN/get.err" >&2; exit 1
}

echo "== follower reports its readable position =="
applied=$(fctl stats | sed -n 's/^repl\.applied //p')
readable=$(fctl stats | sed -n 's/^repl\.readable //p')
[ -n "$readable" ] || { echo "follower stats carry no repl.readable" >&2; exit 1; }
if [ "$readable" -lt "$applied" ]; then
  echo "follower readable $readable behind applied $applied after convergence" >&2; exit 1
fi
fctl stats | grep -q '^server.repl_read_served ' || {
  echo "follower stats carry no repl_read counters" >&2; exit 1
}

echo "== SIGKILL the primary, promote the follower =="
kill -9 "$PPID_D"
wait "$PPID_D" 2>/dev/null || true
PPID_D=""
kill -HUP "$FPID_D"
for i in $(seq 1 100); do
  if fctl repl status | grep -q '^role: primary$'; then break; fi
  sleep 0.1
  if [ "$i" = 100 ]; then echo "follower never promoted" >&2; fctl repl status >&2; exit 1; fi
done

echo "== every acked key is readable from the promoted node =="
for i in $(seq 1 6); do
  for j in $(seq 1 25); do
    if [ "$i" = 1 ] && [ "$j" = 1 ]; then continue; fi
    got=$(fctl get "rk-$i-$j")
    if [ "$got" != "rv-$i-$j" ]; then
      echo "acked key rk-$i-$j lost: got '$got'" >&2; exit 1
    fi
  done
done
if fctl get rk-1-1 >/dev/null 2>&1; then
  echo "acked delete rk-1-1 resurrected" >&2; exit 1
fi

echo "== promoted node accepts new writes =="
fctl put post-failover yes
[ "$(fctl get post-failover)" = "yes" ]

echo "== promoted node serves session reads =="
"$BIN/hyperctl" ryw -addr "$FOLLOWER" -policy bounded -n 10

echo "== graceful shutdown of the promoted node =="
kill -TERM "$FPID_D"
if ! wait "$FPID_D"; then
  echo "promoted hyperd exited non-zero after SIGTERM" >&2
  exit 1
fi
FPID_D=""

echo "== act 2: anti-entropy rejoin (tiny retained log, compressed cold tier) =="
"$BIN/hyperd" -addr "$AE_PRIMARY" -role primary -repl-sync -anti-entropy \
  -repl-log-entries 8 -repl-ack-timeout 1s -compress on -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
APID_D=$!
"$BIN/hyperd" -addr "$AE_FOLLOWER" -role follower -upstream "$AE_PRIMARY" \
  -anti-entropy -compress on -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
AFPID_D=$!
actl() { "$BIN/hyperctl" "$1" -addr "$AE_PRIMARY" "${@:2}"; }
aftl() { "$BIN/hyperctl" "$1" -addr "$AE_FOLLOWER" "${@:2}"; }
axtl() { "$BIN/hyperctl" "$1" -addr "$AE_FRESH" "${@:2}"; }
wait_up ae-primary "$APID_D" actl
wait_up ae-follower "$AFPID_D" aftl

ae_wait_lag0() { # ae_wait_lag0 <expected-follower-count> <what>
  for i in $(seq 1 150); do
    if [ "$(actl repl status | grep -c 'lag=0$')" = "$1" ]; then return 0; fi
    sleep 0.1
  done
  echo "$2: lag never converged" >&2; actl repl status >&2; exit 1
}

echo "== ae: load a dataset and let the follower tail it =="
# Distinct first bytes per writer spread the keys across Merkle leaves;
# the churn below stays inside one writer's prefix, so the repair has a
# small fraction of the leaf space to fetch.
AE_PFX=(b f j n r v z D)
AE_LOAD_PIDS=()
for i in $(seq 1 8); do
  ( p="${AE_PFX[$((i - 1))]}"
    for j in $(seq 1 25); do actl put "$p-ae-$j" "base-$i-$j" >/dev/null; done ) &
  AE_LOAD_PIDS+=($!)
done
for pid in "${AE_LOAD_PIDS[@]}"; do wait "$pid"; done
ae_wait_lag0 1 "ae initial load"

echo "== ae: full-snapshot byte baseline from a fresh follower =="
"$BIN/hyperd" -addr "$AE_FRESH" -role follower -upstream "$AE_PRIMARY" \
  -anti-entropy -compress on -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
AXPID_D=$!
wait_up ae-fresh "$AXPID_D" axtl
ae_wait_lag0 2 "fresh-follower baseline"
snap_bytes=$(actl stats | sed -n 's/^repl\.snap_bytes //p')
[ -n "$snap_bytes" ] && [ "$snap_bytes" -gt 0 ] || {
  echo "fresh follower moved no snapshot bytes (repl.snap_bytes=$snap_bytes)" >&2; exit 1
}
kill -9 "$AXPID_D"; wait "$AXPID_D" 2>/dev/null || true; AXPID_D=""

echo "== ae: stall the follower off the retained window while 10 keys churn =="
kill -STOP "$AFPID_D"
# Sync-ack + 1s ack timeout: the first churned write evicts the stalled
# follower, the rest commit immediately and truncate the 8-entry log far
# past its applied position.
for round in $(seq 1 8); do
  for j in $(seq 1 9); do actl put "b-ae-$j" "churn-$round-$j" >/dev/null; done
done
actl del b-ae-10
actl put b-ae-new brand-new >/dev/null

echo "== ae: resumed follower repairs via the Merkle conversation =="
kill -CONT "$AFPID_D"
ae_wait_lag0 1 "anti-entropy rejoin"
ae_sessions=$(actl stats | sed -n 's/^repl\.ae_sessions //p')
ae_bytes=$(actl stats | sed -n 's/^repl\.ae_bytes //p')
[ "$ae_sessions" = "1" ] || {
  echo "expected exactly one anti-entropy session, got '$ae_sessions'" >&2
  actl stats | grep '^repl\.' >&2; exit 1
}
[ -n "$ae_bytes" ] && [ "$ae_bytes" -gt 0 ] || {
  echo "anti-entropy session moved no bytes" >&2; exit 1
}
if [ "$ae_bytes" -ge "$snap_bytes" ]; then
  echo "anti-entropy moved $ae_bytes bytes, not less than the $snap_bytes full-snapshot baseline" >&2
  exit 1
fi
echo "ae repair moved $ae_bytes bytes vs $snap_bytes full-snapshot baseline"

echo "== ae: follower converged byte-identically =="
actl scan -limit 4096 > "$BIN/primary.scan"
aftl scan -limit 4096 > "$BIN/follower.scan"
cmp "$BIN/primary.scan" "$BIN/follower.scan" || {
  echo "follower scan diverges from primary after anti-entropy" >&2
  diff "$BIN/primary.scan" "$BIN/follower.scan" | head >&2; exit 1
}
grep -q '^"b-ae-new" "brand-new"$' "$BIN/follower.scan" || {
  echo "churned key b-ae-new missing from the repaired follower" >&2; exit 1
}
if grep -q '^"b-ae-10" ' "$BIN/follower.scan"; then
  echo "deleted key b-ae-10 survived the repair" >&2; exit 1
fi

echo "== ae: repaired follower still tails live writes =="
actl put post-ae yes >/dev/null
ae_wait_lag0 1 "post-repair tail"
kill -TERM "$APID_D" "$AFPID_D"
wait "$APID_D" || { echo "ae primary exited non-zero" >&2; exit 1; }
wait "$AFPID_D" || { echo "ae follower exited non-zero" >&2; exit 1; }
APID_D=""; AFPID_D=""

echo "repl smoke OK"
