#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end sharded-serving smoke: build hyperd +
# hyperctl, start a 2-shard cluster, load keys through the routing client,
# move every slot of shard 0 onto shard 1 while a concurrent loader keeps
# writing, SIGKILL the drained source node after the flip, and require every
# acknowledged key to be readable through the surviving node. Exit 0 means
# the handoff lost nothing that was acked and the shard map converged.
set -euo pipefail
cd "$(dirname "$0")/.."

# The default ports sit below Linux's ephemeral range (32768-60999): the
# kernel hands ports in that range to outgoing connections, one that drew a
# listener's port sits in TIME_WAIT for 60 s after it closes, and hyperd then
# dies with "address already in use" — which is what happened whenever the
# test suite or a benchmark ran on loopback just before this script.
NODE_A="${HYPERD_SHARD_A:-127.0.0.1:29820}"
NODE_B="${HYPERD_SHARD_B:-127.0.0.1:29821}"
SLOTS=32
BIN=$(mktemp -d)
APID=""
BPID=""
cleanup() {
  [ -n "$APID" ] && kill -9 "$APID" 2>/dev/null || true
  [ -n "$BPID" ] && kill -9 "$BPID" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/hyperd" ./cmd/hyperd
go build -o "$BIN/hyperctl" ./cmd/hyperctl

"$BIN/hyperd" -addr "$NODE_A" -cluster "$NODE_A,$NODE_B" -slots "$SLOTS" -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
APID=$!
"$BIN/hyperd" -addr "$NODE_B" -cluster "$NODE_A,$NODE_B" -slots "$SLOTS" -unthrottled \
  -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
BPID=$!

actl() { "$BIN/hyperctl" "$1" -addr "$NODE_A" "${@:2}"; }
bctl() { "$BIN/hyperctl" "$1" -addr "$NODE_B" "${@:2}"; }

wait_up() { # wait_up <name> <pid> <ctl-fn>
  for i in $(seq 1 100); do
    if "$3" ping >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then echo "$1 died during startup" >&2; exit 1; fi
    sleep 0.1
  done
  echo "$1 never became reachable" >&2; exit 1
}
wait_up shard-a "$APID" actl
wait_up shard-b "$BPID" bctl

echo "== both nodes agree on the seed map =="
actl shardmap | grep >/dev/null "^version 1, $SLOTS slots, 2 groups$"
bctl shardmap | grep >/dev/null "^version 1, $SLOTS slots, 2 groups$"
actl stats | grep >/dev/null '^cluster.self 0$'
bctl stats | grep >/dev/null '^cluster.self 1$'

echo "== load keys through the routing client =="
"$BIN/hyperctl" cload -seeds "$NODE_A,$NODE_B" -n 500 -prefix ck

echo "== both shards hold a share of the load =="
# Each shard owns half the slots, so a uniform load must land keys on both.
a_scan=$(actl scan -limit 1 | wc -l)
b_scan=$(bctl scan -limit 1 | wc -l)
[ "$a_scan" -ge 1 ] || { echo "shard a holds no keys" >&2; exit 1; }
[ "$b_scan" -ge 1 ] || { echo "shard b holds no keys" >&2; exit 1; }

echo "== handoff under load: move every slot of shard 0 onto shard 1 =="
moved=$(actl stats | sed -n 's/^cluster.slots_owned //p')
[ "$moved" -ge 1 ] || { echo "shard a owns no slots before handoff" >&2; exit 1; }
# Concurrent loader keeps writing a disjoint key range while slots move; the
# routing client must absorb every WRONG_SHARD bounce the flip causes.
"$BIN/hyperctl" cload -seeds "$NODE_A,$NODE_B" -n 300 -prefix live &
LOAD_PID=$!
slots_a=$(actl shardmap | sed -n 's/^  group 0 .* slots \(.*\)$/\1/p')
"$BIN/hyperctl" handoff -target "$NODE_B" "$slots_a" | grep >/dev/null "map version 2"
if ! wait "$LOAD_PID"; then
  echo "concurrent loader failed during handoff" >&2; exit 1
fi

echo "== map converged on both nodes, no slot double-owned =="
bctl stats | grep >/dev/null '^cluster.map_version 2$'
actl stats | grep >/dev/null '^cluster.map_version 2$'
actl stats | grep >/dev/null '^cluster.slots_owned 0$'
bctl stats | grep >/dev/null "^cluster.slots_owned $SLOTS$"

echo "== SIGKILL the drained source node after the flip =="
kill -9 "$APID"
wait "$APID" 2>/dev/null || true
APID=""

echo "== every acked key is readable through the surviving node =="
"$BIN/hyperctl" ccheck -seeds "$NODE_B" -n 500 -prefix ck
"$BIN/hyperctl" ccheck -seeds "$NODE_B" -n 300 -prefix live

echo "== surviving node accepts new writes for the whole keyspace =="
"$BIN/hyperctl" cload -seeds "$NODE_B" -n 50 -prefix post
"$BIN/hyperctl" ccheck -seeds "$NODE_B" -n 50 -prefix post

echo "== graceful shutdown of the surviving node =="
kill -TERM "$BPID"
if ! wait "$BPID"; then
  echo "surviving hyperd exited non-zero after SIGTERM" >&2
  exit 1
fi
BPID=""

echo "cluster smoke OK"
