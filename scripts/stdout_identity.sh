#!/usr/bin/env bash
# Refactor sameness check: the fig*/ext_*/quickstart binaries and the four
# benches behind the committed BENCH_*.json rows print deterministic
# virtual-time results, so a change meant to keep behaviour must leave their
# default-flag stdout byte-identical. Runs every such binary of
# CHANGE_BUILD and of PARENT_BUILD (two processes at a time, one per side),
# cmp's the two stdouts, and names each binary that differs, exits with a
# different status, or exists on one side only.
#
# Usage: scripts/stdout_identity.sh PARENT_BUILD CHANGE_BUILD
# Exit status: 0 all identical, 1 any difference, 2 usage error.
# Takes about 80 s for both sides of a Release build on 4 vCPUs.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

names() {
  for f in "$1"/fig* "$1"/ext_* "$1"/quickstart "$1"/sharded_engine "$1"/pipelined_engine \
      "$1"/elastic_scaling "$1"/cluster_lifecycle; do
    [ -f "$f" ] && [ -x "$f" ] && basename "$f"
  done
}

differ=()
count=0
for name in $( (names "$parent"; names "$change") | sort -u); do
  count=$((count + 1))
  if [ ! -x "$parent/$name" ] || [ ! -x "$change/$name" ]; then
    echo "MISSING  $name (built on one side only)"
    differ+=("$name")
    continue
  fi
  (cd "$out" && "$parent/$name" > "$name.parent" 2> /dev/null; echo $? > "$name.parent.rc") &
  (cd "$out" && "$change/$name" > "$name.change" 2> /dev/null; echo $? > "$name.change.rc") &
  wait
  if ! cmp -s "$out/$name.parent" "$out/$name.change"; then
    echo "DIFFERS  $name (stdout)"
    differ+=("$name")
  elif ! cmp -s "$out/$name.parent.rc" "$out/$name.change.rc"; then
    echo "DIFFERS  $name (exit $(cat "$out/$name.parent.rc") vs $(cat "$out/$name.change.rc"))"
    differ+=("$name")
  else
    echo "same     $name"
  fi
done

if [ ${#differ[@]} -ne 0 ]; then
  echo "stdout_identity: ${#differ[@]} of $count binaries differ: ${differ[*]}"
  exit 1
fi
echo "stdout_identity: all $count binaries identical"
