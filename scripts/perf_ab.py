#!/usr/bin/env python3
"""Paired A/B runs of the perfbench harness: a parent revision against the
working tree (or a second revision), on every workload of BENCHMARK.json.

    scripts/perf_ab.py PARENT_REV [--change-rev REV] [--pairs N] [--seconds S]
                       [--workloads NAME,...] [--seeds N,...]

Builds each side's harness (perfbench/CMakeLists.txt, Release) in its own
directory under .bench_build/perf_ab: the parent from `git archive
PARENT_REV`, the change from the working tree, or from `git archive` of
--change-rev. Then, per pair of runs:

  * replay workloads: parent and change run at the same moment, each pinned
    with os.sched_setaffinity to its own CPU (the first two this process
    may use), so both see the same host drift; the two CPUs swap every
    pair.
  * wire-ycsb-a (three threads per side): the sides run one after the other,
    the first side alternating every pair.

Seeds cycle 1, 2, 3 (or --seeds). For each end-to-end metric of BENCHMARK.json it prints
the median change/parent ratio over the pairs, the pairs the change won, and
each side's spread (IQR over median); the verdict is "unresolved" when
either side's spread exceeds the metric's bound, otherwise "worse" or
"better" when the median moves past the bound, else "within". It also checks
that both sides reproduce each other's fingerprint (every modelled value of a
replay) per seed, and that no run failed an operation or a check.

It writes only under .bench_build/perf_ab, never to BENCHMARK.json or
perfbench/. A parent-vs-parent run (--change-rev equal to PARENT_REV) shows
how far the medians wander without a change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEQUENTIAL = {"wire-ycsb-a"}  # several threads per side: not pinned, not paired in time


def sh(cmd, **kwargs):
    subprocess.run(cmd, check=True, **kwargs)


def export(rev, dest):
    """Unpacks `git archive rev` into dest (replacing what was there). The
    files get the current time, not the commit's (tar -m): with the commit's
    older time, a build dir kept from another revision would look up to date
    and keep that revision's objects."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-m", "-C", dest], input=archive, check=True)


def build(src_root, build_dir, jobs):
    """Builds src_root's perfbench harness into build_dir; returns its path.
    A build_dir configured from another source tree is started afresh."""
    source = os.path.join(src_root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % source not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        sh(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
           stdout=subprocess.DEVNULL)
    sh(["cmake", "--build", build_dir, "-j", str(jobs), "--target", "perfbench_harness"],
       stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "perfbench_harness")


def start(harness, workload, seed, seconds, cpu):
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            preexec_fn=pin)


def finish(proc):
    """Waits for a harness run and returns its RESULT object."""
    out, _ = proc.communicate()
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
            if proc.returncode == 0:
                return result
    raise RuntimeError("harness %s failed (exit %d)" % (proc.args[0], proc.returncode))


def run_pair(harnesses, workload, seed, seconds, cpus, index):
    """One parent/change pair of runs; returns (parent_result, change_result)."""
    if workload in SEQUENTIAL:
        order = (0, 1) if index % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            results[side] = finish(start(harnesses[side], workload, seed, seconds, None))
        return results[0], results[1]
    a, b = cpus if index % 2 == 0 else (cpus[1], cpus[0])
    procs = [start(harnesses[0], workload, seed, seconds, a),
             start(harnesses[1], workload, seed, seconds, b)]
    return finish(procs[0]), finish(procs[1])


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    at = q * (len(s) - 1)
    lo = int(at)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (at - lo)


def spread(values):
    """Distance between the quartiles over the median."""
    median = statistics.median(values)
    return (quantile(values, 0.75) - quantile(values, 0.25)) / median if median else 0.0


def report(workload, pairs, metrics):
    """Prints one workload's table; returns the problems it found."""
    problems = []
    for i, (parent, change) in enumerate(pairs):
        for side, r in (("parent", parent), ("change", change)):
            if not r["correct"] or r["failed"] or r["errors"]:
                problems.append("%s pair %d (%s): correct=%s failed=%d errors=%s" % (
                    workload, i, side, r["correct"], r["failed"], r["errors"]))
        if parent["fingerprint"] != change["fingerprint"]:
            diff = sorted(k for k in set(parent["fingerprint"]) | set(change["fingerprint"])
                          if parent["fingerprint"].get(k) != change["fingerprint"].get(k))
            problems.append("%s pair %d seed %d: fingerprint fields differ: %s" % (
                workload, i, parent["seed"], ", ".join(diff)))
    print("\n%s: %d pairs, seeds %s" % (
        workload, len(pairs), ",".join(str(p["seed"]) for p, _ in pairs)))
    print("  %-14s %9s %9s %10s %8s %8s %6s  %s" % (
        "metric", "parent", "change", "ratio", "won", "spr(P)", "spr(C)", "verdict"))
    for m in metrics:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        p = [r["metrics"][name] for r, _ in pairs]
        c = [r["metrics"][name] for _, r in pairs]
        ratio = statistics.median(cv / pv for pv, cv in zip(p, c))
        won = sum(1 for pv, cv in zip(p, c) if (cv > pv if higher else cv < pv))
        sp, sc = spread(p), spread(c)
        change = (ratio - 1.0) if higher else (1.0 - ratio)  # > 0: the change is better
        if sp > bound or sc > bound:
            verdict = "unresolved"
        elif change < -bound:
            verdict = "worse"
        elif change > bound:
            verdict = "better"
        else:
            verdict = "within"
        print("  %-14s %9.4g %9.4g %10.4f %5d/%-2d %8.3f %6.3f  %s" % (
            name, statistics.median(p), statistics.median(c), ratio, won, len(pairs), sp, sc,
            verdict))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--change-rev", help="revision to compare (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=4.0, help="per harness run")
    parser.add_argument("--workloads", help="comma-separated (default: all of BENCHMARK.json)")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated, cycled over the pairs")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown or args.pairs < 1:
        parser.error("unknown workloads %s" % unknown if unknown else "--pairs must be >= 1")
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        parser.error("needs two CPUs to pin a pair's sides to; this process may use %s" % allowed)
    cpus = tuple(allowed[:2])

    jobs = max(1, min(len(allowed), 4))
    work = os.path.join(ROOT, ".bench_build", "perf_ab")
    export(args.parent_rev, os.path.join(work, "parent-src"))
    harnesses = [build(os.path.join(work, "parent-src"), os.path.join(work, "parent-build"),
                       jobs)]
    if args.change_rev:
        export(args.change_rev, os.path.join(work, "change-src"))
        harnesses.append(build(os.path.join(work, "change-src"),
                               os.path.join(work, "change-build"), jobs))
    else:
        harnesses.append(build(ROOT, os.path.join(work, "change-build"), jobs))

    print("perf_ab: parent %s vs change %s; %d pairs x %.1f s; replay pairs pinned to CPUs %d,%d"
          % (args.parent_rev, args.change_rev or "working tree", args.pairs, args.seconds,
             cpus[0], cpus[1]))
    began = time.monotonic()
    problems = []
    for workload in workloads:
        pairs = [run_pair(harnesses, workload, seeds[i % len(seeds)], args.seconds, cpus, i)
                 for i in range(args.pairs)]
        problems += report(workload, pairs, spec["end_to_end"])
        sys.stdout.flush()
    print("\nperf_ab: %.0f s of runs" % (time.monotonic() - began))
    for p in problems:
        print("PROBLEM: %s" % p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
