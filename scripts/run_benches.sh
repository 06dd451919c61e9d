#!/usr/bin/env bash
# Builds Release and runs every fig* bench plus the sharded-engine, elastic-
# scaling, contended-engine, pipelined-engine and cluster-lifecycle benches
# at default flags, capturing each bench's stdout under bench/out/ and
# writing a JSON manifest (name, exit code, wall seconds, output path) to
# bench/out/summary.json.
#
# Benches that print machine-readable "BENCH_JSON {...}" rows (see
# bench::EmitBenchJson: modelled columns only) get those rows collected —
# grouped by each row's own "bench" field — into bench/out/BENCH_<bench>.json
# by `bench_report.py collect`. The script then runs `bench_report.py check`,
# which compares them exactly to the committed root-level BENCH_*.json and
# exits 1 on any difference. Host wall rates come from perfbench/ only.
#
# Usage: scripts/run_benches.sh
set -euo pipefail
[ $# -eq 0 ] || { echo "usage: scripts/run_benches.sh" >&2; exit 2; }

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"
out_dir="${repo_root}/bench/out"
mkdir -p "${out_dir}"
rm -f "${out_dir}"/BENCH_*.json

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
      -DDITTO_BUILD_TESTS=OFF >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" >/dev/null

summary="${out_dir}/summary.json"
echo "[" > "${summary}"
first=1

for bench in "${build_dir}"/fig* "${build_dir}"/sharded_engine "${build_dir}"/elastic_scaling \
             "${build_dir}"/contended_engine "${build_dir}"/pipelined_engine \
             "${build_dir}"/cluster_lifecycle; do
  [ -x "${bench}" ] || continue
  name="$(basename "${bench}")"
  out_file="${out_dir}/${name}.txt"
  echo ">> ${name}"
  start="$(date +%s.%N)"
  status=0
  "${bench}" > "${out_file}" 2>&1 || status=$?
  end="$(date +%s.%N)"
  seconds="$(echo "${end} ${start}" | awk '{printf "%.2f", $1 - $2}')"
  [ "${first}" -eq 1 ] || echo "," >> "${summary}"
  first=0
  printf '  {"bench": "%s", "exit_code": %d, "seconds": %s, "output": "bench/out/%s.txt"}' \
         "${name}" "${status}" "${seconds}" "${name}" >> "${summary}"
  if [ "${status}" -ne 0 ]; then
    echo "   FAILED (exit ${status}) — see ${out_file}"
  fi
  # A malformed row is a hard error: corrupt result files are never written.
  python3 "${repo_root}/scripts/bench_report.py" collect "${out_file}" \
          --out-dir "${out_dir}"
done

echo >> "${summary}"
echo "]" >> "${summary}"
echo "wrote ${summary}"

python3 "${repo_root}/scripts/bench_report.py" check --out-dir "${out_dir}" \
        --baseline-dir "${repo_root}"
