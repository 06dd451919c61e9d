#!/usr/bin/env bash
# Smoke-tests the RESP front end as a real process: starts ditto_server on an
# ephemeral-ish port, replays 50k ops over loopback with server_loadgen
# --connect, runs resp_client's scripted session (every command kind, each
# reply decoded), then SIGTERMs the server and asserts a clean exit (exit
# code 0 — under ASan that also means no leaked fds/allocations survived
# shutdown).
# Runs twice: on one shared memory pool, then on a two-node ClusterPool
# (--shards=2), the served multi-node path.
#
# Usage: scripts/server_smoke.sh <build_dir> [port]
set -euo pipefail

build_dir="${1:?usage: server_smoke.sh <build_dir> [port]}"
port="${2:-6399}"

server="${build_dir}/ditto_server"
loadgen="${build_dir}/server_loadgen"
client="${build_dir}/resp_client"
[ -x "${server}" ] || { echo "server_smoke: ${server} not built" >&2; exit 1; }
[ -x "${loadgen}" ] || { echo "server_smoke: ${loadgen} not built" >&2; exit 1; }
[ -x "${client}" ] || { echo "server_smoke: ${client} not built" >&2; exit 1; }

# smoke <ditto_server flags...>: one start / replay / SIGTERM cycle.
smoke() {
  log="$(mktemp)"
  "${server}" --port="${port}" "$@" > "${log}" 2>&1 &
  server_pid=$!
  trap 'kill -9 "${server_pid}" 2>/dev/null || true; cat "${log}"; rm -f "${log}"' EXIT

  # Wait for the listening line (the server prints it once the acceptors are up).
  for _ in $(seq 1 100); do
    grep -q "listening on" "${log}" && break
    kill -0 "${server_pid}" 2>/dev/null || { echo "server_smoke: server died at startup" >&2; exit 1; }
    sleep 0.1
  done
  grep -q "listening on" "${log}" || { echo "server_smoke: server never came up" >&2; exit 1; }

  echo ">> [$*] replaying 50k ops over loopback"
  "${loadgen}" --connect="${port}" --requests=50000 --conns=8 --depth=8

  echo ">> [$*] scripted RESP session"
  "${client}" --port="${port}"

  echo ">> [$*] SIGTERM: expecting a graceful exit 0"
  kill -TERM "${server_pid}"
  status=0
  wait "${server_pid}" || status=$?
  trap 'rm -f "${log}"' EXIT
  cat "${log}"
  if [ "${status}" -ne 0 ]; then
    echo "server_smoke: server [$*] exited ${status} after SIGTERM" >&2
    exit 1
  fi
  grep -q "shutting down" "${log}" || { echo "server_smoke: no graceful-shutdown line" >&2; exit 1; }
  rm -f "${log}"
  trap - EXIT
}

smoke --reactors=2
smoke --reactors=2 --shards=2
echo "server_smoke: OK"
