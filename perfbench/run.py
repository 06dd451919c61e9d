#!/usr/bin/env python3
"""The repository benchmark: builds the harness, runs one workload, checks its
outputs and prints the metrics, the last line being one JSON object.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # tests of the benchmark's own logic

The workloads and metrics are the ones BENCHMARK.json lists. --trace 0
reports the end-to-end metrics. --trace 1 runs the workload untraced and then
traced, and reports the per-layer metrics of the traced run and the tracing
overhead on every end-to-end metric. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# A per-layer metric named OVERHEAD + <end-to-end metric> is the relative
# worsening of that metric under tracing.
OVERHEAD = "trace.overhead."


def load_spec():
    """BENCHMARK.json is the one list of workloads and metrics."""
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures and builds the harness in .bench_build (incremental)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "runner.h")):
        raise RuntimeError("no repository sources under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)


def binary_digest():
    with open(HARNESS, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def run_harness(workload, seed, seconds, traced, deadline):
    """Runs the harness once and returns its RESULT object; its report lines
    are passed through."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if traced else "0"]
    if traced:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, workload + ".csv")]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=timeout)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        raise RuntimeError("harness failed (exit %d)" % proc.returncode)
    return result


def check_fingerprint(result, digest):
    """The values a replay must reproduce exactly must match every earlier
    run of the same workload and seed with this binary, kept in
    .bench_build/perfbench/fingerprints. Returns errors."""
    fp = result.get("fingerprint") or {}
    if not fp:
        return []
    workload, seed = result["workload"], result["seed"]
    path = os.path.join(BUILD, "fingerprints", "%s-seed%d.json" % (workload, seed))
    saved = None
    try:
        with open(path) as f:
            stored = json.load(f)
        if stored.get("digest") == digest:
            saved = stored["value"]
    except (OSError, ValueError, KeyError):
        pass
    if saved is None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"digest": digest, "value": fp}, f)
        return []
    return ["%s differs from an earlier run of seed %d (%r vs %r)" % (k, seed, v, saved.get(k))
            for k, v in sorted(fp.items()) if saved.get(k) != v]


def overhead(name, better, traced, untraced):
    """Relative cost of tracing on one metric; positive when the traced run
    is worse."""
    base = untraced.get(name)
    value = traced.get(name)
    if not base or value is None:
        return 0.0
    change = (value - base) / base
    return change if better == "lower" else -change


def run(args, spec):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    build()
    digest = binary_digest()
    untraced = run_harness(args.workload, args.seed, args.seconds, False, deadline)
    errors = check_fingerprint(untraced, digest) + untraced["errors"]
    result = untraced
    if args.trace:
        result = run_harness(args.workload, args.seed, args.seconds, True, deadline)
        errors += check_fingerprint(result, digest) + result["errors"]

    got = result["metrics"]
    metrics = {}
    if args.trace:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith(OVERHEAD):
                base = name[len(OVERHEAD):]
                value = overhead(base, better[base], got, untraced["metrics"])
            else:
                # Figures of a layer the workload does not run (net on the
                # replays, sim on the wire) read 0.
                value = got.get(name, 0.0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = got.get(m["name"])
            if value is None or value <= 0:
                raise RuntimeError("metric %s missing or not positive: %r" % (m["name"], value))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    width = max(len(n) for n in metrics)
    print("# %s seed=%d trace=%d (%.1f s)" % (args.workload, args.seed, args.trace,
                                             time.monotonic() - start))
    for name, m in metrics.items():
        print("#   %-*s %16.6g %s" % (width, name, m["value"], m["unit"]))
    for e in errors:
        print("# CHECK FAILED: %s" % e)
    attempted = untraced["attempted"] + (result["attempted"] if args.trace else 0)
    failed = untraced["failed"] + (result["failed"] if args.trace else 0)
    print(json.dumps({
        "correct": untraced["correct"] and result["correct"] and not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))


def selftest(spec):
    build()
    subprocess.run([SELFTEST], check=True)
    # Overhead arithmetic: positive means tracing made the metric worse.
    assert abs(overhead("m", "lower", {"m": 110.0}, {"m": 100.0}) - 0.1) < 1e-12
    assert abs(overhead("m", "higher", {"m": 90.0}, {"m": 100.0}) - 0.1) < 1e-12
    assert overhead("m", "lower", {"m": 1.0}, {"m": 0.0}) == 0.0
    # BENCHMARK.json obeys the benchmark contract's limits, and every
    # overhead metric names an end-to-end metric.
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(m["name"][len(OVERHEAD):] in end_to_end
               for m in spec["per_layer"] if m["name"].startswith(OVERHEAD))
    print("run.py selftest: all checks passed")


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print("perfbench: cannot read %s: %s" % (SPEC_PATH, e), file=sys.stderr)
        sys.exit(1)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest(spec)
        elif args.workload:
            run(args, spec)
        else:
            parser.error("--workload is required")
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError, AssertionError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
