#!/usr/bin/env python3
"""Bench rows: collect BENCH_JSON rows and check them against the committed ones.

Benches that print machine-readable "BENCH_JSON {...}" rows (see
bench::EmitBenchJson) carry only modelled columns: virtual-time throughput,
hit rate, virtual p50/p99, contention and NIC counts. They are exact for a
seed and a build, so the committed root-level BENCH_*.json files are compared
value for value; any difference is a behaviour change. Host wall rates come
from perfbench/ only. Two subcommands:

  collect <stdout.txt> --out-dir DIR
      Extract the BENCH_JSON rows from captured bench stdout and write them to
      DIR/BENCH_<bench>.json, grouping rows by each row's OWN "bench" field (a
      file holding rows of several benches produces several files). Exits
      non-zero on an unparseable row or a row without a "bench" field —
      corruption is an error, never a silent skip.

  check --out-dir DIR [--baseline-dir DIR]
      Compare the fresh rows in --out-dir to the committed rows in
      --baseline-dir (default: the repo root), matched by (bench, label).
      Exits 1 and names bench, label and column for every changed value, for
      every committed row the fresh run lacks, and for every fresh row that
      no committed row matches.

The committed rows are the default-flag rows of sharded_engine,
pipelined_engine, elastic_scaling and cluster_lifecycle. Re-record them,
from a Release build in build/, with the one command:

  (cd build && for b in sharded_engine pipelined_engine elastic_scaling \\
     cluster_lifecycle; do ./$b; done) > bench/out/rows.txt &&
  python3 scripts/bench_report.py collect bench/out/rows.txt --out-dir .
"""

import argparse
import glob
import json
import os
import sys


def load_rows(out_dir):
    """Loads every BENCH_*.json under out_dir. Raises on malformed files."""
    paths = sorted(glob.glob(os.path.join(out_dir, "BENCH_*.json")))
    rows = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)  # a JSONDecodeError here is fatal by design
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a JSON array of rows")
        for row in data:
            if not isinstance(row, dict):
                raise ValueError(f"{path}: expected every row to be an object")
            rows.append(row)
    return rows, paths


def index_rows(rows, where):
    """Rows keyed by (bench, label). Raises on a duplicate key."""
    by_key = {}
    for row in rows:
        key = (row.get("bench"), row.get("label"))
        if key in by_key:
            raise ValueError(f"{where}: duplicate row bench '{key[0]}' label '{key[1]}'")
        by_key[key] = row
    return by_key


def cmd_collect(args):
    with open(args.stdout_file, encoding="utf-8") as f:
        lines = [line[len("BENCH_JSON "):] for line in f
                 if line.startswith("BENCH_JSON ")]
    if not lines:
        print(f"bench_report: no BENCH_JSON rows in {args.stdout_file}")
        return 0
    groups = {}
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            print(f"bench_report: malformed BENCH_JSON row {i} in "
                  f"{args.stdout_file}: {e}\n  {line.rstrip()}", file=sys.stderr)
            return 1
        name = row.get("bench")
        if not name:
            print(f"bench_report: row {i} in {args.stdout_file} has no "
                  "\"bench\" field", file=sys.stderr)
            return 1
        groups.setdefault(name, []).append(row)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, rows in sorted(groups.items()):
        path = os.path.join(args.out_dir, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
            f.write("\n")
        print(f"bench_report: wrote {path} ({len(rows)} rows)")
    return 0


def cmd_check(args):
    try:
        fresh_rows, _ = load_rows(args.out_dir)
        committed_rows, committed_paths = load_rows(args.baseline_dir)
        fresh = index_rows(fresh_rows, args.out_dir)
        committed = index_rows(committed_rows, args.baseline_dir)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_report: malformed bench results: {e}", file=sys.stderr)
        return 1
    if not committed_paths:
        print(f"bench_report: no committed BENCH_*.json under {args.baseline_dir}",
              file=sys.stderr)
        return 1

    absent = "<absent>"
    problems = []
    for (bench, label), base in committed.items():
        where = f"bench '{bench}' label '{label}'"
        cur = fresh.get((bench, label))
        if cur is None:
            problems.append(f"{where}: committed row missing from the fresh run")
            continue
        for column in sorted(set(base) | set(cur)):
            want = base.get(column, absent)
            got = cur.get(column, absent)
            if want != got:
                problems.append(f"{where} column '{column}': committed {want}, fresh {got}")
    for bench, label in fresh:
        if (bench, label) not in committed:
            problems.append(f"bench '{bench}' label '{label}': fresh row matches no "
                            "committed row")

    if problems:
        for problem in problems:
            print(f"bench_report: check FAILED: {problem}", file=sys.stderr)
        return 1
    print(f"bench_report: check ok: {len(committed)} committed rows match exactly")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="extract BENCH_JSON rows from bench stdout")
    p_collect.add_argument("stdout_file")
    p_collect.add_argument("--out-dir", default="bench/out")

    p_check = sub.add_parser("check", help="compare fresh rows to the committed ones")
    p_check.add_argument("--out-dir", default="bench/out")
    p_check.add_argument("--baseline-dir", default=".",
                         help="dir of the committed BENCH_*.json (default: repo root)")

    args = parser.parse_args(argv)
    return {"collect": cmd_collect, "check": cmd_check}[args.command](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
