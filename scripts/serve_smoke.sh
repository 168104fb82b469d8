#!/usr/bin/env bash
# serve_smoke.sh — integration smoke for the serving subsystem: build
# hyperd + hyperctl, start the daemon, run pipelined client ops (including
# one deliberately malformed frame), then SIGTERM it and require a clean
# drain-and-shutdown exit code.
set -euo pipefail
cd "$(dirname "$0")/.."

# The default port sits below Linux's ephemeral range (32768-60999): the
# kernel hands ports in that range to outgoing connections, one that drew a
# listener's port sits in TIME_WAIT for 60 s after it closes, and hyperd then
# dies with "address already in use" — which is what happened whenever the
# test suite or a benchmark ran on loopback just before this script.
ADDR="${HYPERD_ADDR:-127.0.0.1:29800}"
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

go build -o "$BIN/hyperd" ./cmd/hyperd
go build -o "$BIN/hyperctl" ./cmd/hyperctl

"$BIN/hyperd" -addr "$ADDR" -unthrottled -nvme $((32 << 20)) -sata $((1 << 30)) -partitions 4 &
HYPERD_PID=$!
kill_daemon() { kill "$HYPERD_PID" 2>/dev/null || true; rm -rf "$BIN"; }
trap kill_daemon EXIT

ctl() { "$BIN/hyperctl" "$1" -addr "$ADDR" "${@:2}"; }

# Wait for the listener.
for i in $(seq 1 100); do
  if ctl ping >/dev/null 2>&1; then break; fi
  if ! kill -0 "$HYPERD_PID" 2>/dev/null; then echo "hyperd died during startup" >&2; exit 1; fi
  sleep 0.1
  if [ "$i" = 100 ]; then echo "hyperd never became reachable" >&2; exit 1; fi
done

echo "== basic ops =="
ctl put alpha one
ctl put beta two
[ "$(ctl get alpha)" = "one" ]
ctl del alpha
if ctl get alpha >/dev/null 2>&1; then echo "deleted key still readable" >&2; exit 1; fi
ctl scan -limit 10
ctl stats | grep -q '^server.ops.put 2$'

echo "== pipelined load (concurrent hyperctl clients) =="
LOAD_PIDS=()
for i in $(seq 1 8); do
  ( for j in $(seq 1 25); do ctl put "k-$i-$j" "v-$i-$j" >/dev/null; done ) &
  LOAD_PIDS+=($!)
done
for pid in "${LOAD_PIDS[@]}"; do wait "$pid"; done
[ "$(ctl get k-3-7)" = "v-3-7" ]

echo "== malformed frame =="
ctl badframe
ctl ping  # the daemon must have survived the garbage

echo "== graceful shutdown =="
kill -TERM "$HYPERD_PID"
if ! wait "$HYPERD_PID"; then
  echo "hyperd exited non-zero after SIGTERM" >&2
  exit 1
fi
trap 'rm -rf "$BIN"' EXIT

echo "serve smoke OK"
