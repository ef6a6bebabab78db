#!/usr/bin/env bash
# CI entry point — the full analysis matrix:
#
#   1. lint        scripts/parser_lint.py, scripts/lock_lint.py (locking
#                  discipline — see DESIGN.md "Concurrency & locking
#                  policy"), and scripts/secret_flow_lint.py (secret-flow
#                  and constant-time policy), each after its --self-test,
#                  run concurrently
#   2. clang-tidy  .clang-tidy profile over src/ (NOT RUN when clang-tidy
#                  is not installed)
#   3. thread-safety  clang capability analysis: a negative/positive
#                  self-test pair (tests/static/) proving the analysis is
#                  armed — the seeded off-lock mutation MUST fail to
#                  compile — then a full clang build of the tree with
#                  -DCBL_THREAD_SAFETY=ON, i.e. -Wthread-safety
#                  -Wthread-safety-beta -Werror=thread-safety-analysis
#                  (NOT RUN when clang++ is not installed)
#   4. secret-flow whole-program secret-flow analysis
#                  (scripts/secret_flow_lint.py over the Secret<T> taint
#                  layer of src/common/secret.h): self-test, then a
#                  negative/positive TU pair (tests/static/) proving the
#                  analyzer is armed — the seeded secret-into-vartime call
#                  MUST be flagged S1, its declassified twin must pass —
#                  then the full-tree run
#   5. release     optimized build + full test suite
#   6. asan-ubsan  Debug + AddressSanitizer + UBSan, full test suite
#   7. tsan        Debug + ThreadSanitizer, full test suite (query-service
#                  and voting paths are concurrent; see src/oprf locking)
#   8. ctcheck     Debug + -DCBL_CTCHECK=ON: crypto libraries instrumented
#                  with -fsanitize-coverage=trace-pc, then the differential
#                  trace harness runs its self-test and the secret audit
#   9. fuzz-smoke  Debug + ASan/UBSan + -DCBL_FUZZ=ON: every harness
#                  replays its committed corpus, then mutation-fuzzes for
#                  CBL_FUZZ_SMOKE_SECONDS (default 30) — any trap, sanitizer
#                  report, or harness invariant violation aborts
#  10. chaos-smoke Debug + ASan/UBSan: the seeded chaos harness
#                  (tests/test_chaos) sweeps randomized fault schedules —
#                  drops, corruption, blackouts, crash-restart, per-key
#                  rate limiting — over thousands of queries.
#                  CBL_CHAOS_SEED (default pinned) and CBL_CHAOS_QUERIES
#                  (per plan) are printed so any failure replays
#                  bit-exactly
#  11. crash-smoke Debug + ASan/UBSan: the durable-state suite
#                  (tests/test_store — journal/snapshot parsers, fault
#                  injection, restart recovery) plus the crash-at-every-
#                  fs-op-boundary sweep and store-gremlin rounds from
#                  tests/test_chaos, under a pinned CBL_CHAOS_SEED so any
#                  failure replays bit-exactly (the replay command is
#                  printed before the run)
#  12. perf-smoke  Release build of bench_throughput, bench_tlog and
#                  bench_store, run with --json --quick; the emitted
#                  BENCH_*.json must parse, the batched-encode kernel
#                  must not regress below the scalar path (speedup >= 1
#                  at batch >= 64), a signed epoch delta must cost fewer
#                  wire bytes than the full bucket download it replaces
#                  at >= 2 changed entries per 1k, and store recovery
#                  must replay every appended journal record
#
# Usage:
#   scripts/ci.sh [build-root]          # default build root: build-ci/
#   scripts/ci.sh --list                # enumerate stages, one per line
#   CBL_CI_STAGES="lint release" scripts/ci.sh    # run a subset
#                                       # (an unknown stage name fails)
#
# Every run ends with a per-stage wall-clock timing summary. Any failure
# (lint finding, configure, compile, or test) aborts. A stage whose tool
# is missing does not fail the run; it is reported as NOT RUN, not green.
set -euo pipefail

all_stages=(lint clang-tidy thread-safety secret-flow release asan-ubsan
            tsan ctcheck fuzz-smoke chaos-smoke crash-smoke perf-smoke)

if [[ "${1:-}" == "--list" ]]; then
  printf '%s\n' "${all_stages[@]}"
  exit 0
fi

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_root="${1:-${repo_root}/build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
stages="${CBL_CI_STAGES:-${all_stages[*]}}"

generator_args=()
if command -v ninja >/dev/null 2>&1; then
  generator_args=(-G Ninja)
fi

want() { [[ " ${stages} " == *" $1 "* ]]; }

# A misspelt or retired stage name would otherwise select nothing and
# still end in "CI OK".
for requested in ${stages}; do
  if [[ " ${all_stages[*]} " != *" ${requested} "* ]]; then
    echo "unknown CI stage '${requested}'; valid stages: ${all_stages[*]}" >&2
    exit 2
  fi
done

# stage -> why it did not run (a required tool is missing).
declare -A not_run=()

run_config() {
  local name="$1"
  shift
  local dir="${build_root}/${name}"
  echo "=== [${name}] configure ==="
  cmake -S "${repo_root}" -B "${dir}" "${generator_args[@]}" "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== [${name}] test ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

stage_lint() {
  # The three lints are independent read-only analyses — run them
  # concurrently and serialize their logs afterwards.
  mkdir -p "${build_root}"
  local names=(parser_lint lock_lint secret_flow_lint)
  local pids=() logs=()
  echo "=== [lint] ${names[*]} (concurrent) ==="
  local name log
  for name in "${names[@]}"; do
    log="${build_root}/lint_${name}.log"
    logs+=("${log}")
    (
      echo "--- ${name} --self-test ---"
      python3 "${repo_root}/scripts/${name}.py" --self-test
      echo "--- ${name} ---"
      python3 "${repo_root}/scripts/${name}.py" --root "${repo_root}"
    ) >"${log}" 2>&1 &
    pids+=($!)
  done
  local failed=0 i
  for i in "${!names[@]}"; do
    if ! wait "${pids[$i]}"; then
      failed=1
      echo "=== [lint] ${names[$i]} FAILED ===" >&2
    fi
    cat "${logs[$i]}"
  done
  return "${failed}"
}

stage_clang_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== [clang-tidy] configure (compile database) ==="
    local tidy_dir="${build_root}/clang-tidy"
    cmake -S "${repo_root}" -B "${tidy_dir}" "${generator_args[@]}" \
      -DCMAKE_BUILD_TYPE=Debug -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    echo "=== [clang-tidy] analyze src/ ==="
    find "${repo_root}/src" -name '*.cpp' -print0 |
      xargs -0 -P "${jobs}" -n 8 clang-tidy -p "${tidy_dir}" --quiet
  else
    not_run[clang-tidy]="clang-tidy not installed"
    echo "=== [clang-tidy] NOT RUN: clang-tidy not installed ==="
  fi
}

stage_thread_safety() {
  if command -v clang++ >/dev/null 2>&1; then
    mkdir -p "${build_root}"
    local ts_flags=(-std=c++20 -fsyntax-only -I "${repo_root}/src"
                    -Wthread-safety -Wthread-safety-beta
                    -Werror=thread-safety-analysis)
    echo "=== [thread-safety] negative self-test (seeded off-lock access MUST fail) ==="
    if clang++ "${ts_flags[@]}" \
        "${repo_root}/tests/static/thread_safety_negative.cpp" \
        2>"${build_root}/thread_safety_negative.log"; then
      echo "thread-safety stage is NOT armed: the seeded off-lock" \
        "mutation in tests/static/thread_safety_negative.cpp compiled" \
        "cleanly" >&2
      exit 1
    fi
    grep -q "thread-safety" "${build_root}/thread_safety_negative.log" || {
      echo "negative self-test failed for the wrong reason:" >&2
      cat "${build_root}/thread_safety_negative.log" >&2
      exit 1
    }
    echo "=== [thread-safety] positive self-test (fixed twin must pass) ==="
    clang++ "${ts_flags[@]}" \
      "${repo_root}/tests/static/thread_safety_positive.cpp"
    echo "=== [thread-safety] scripts/lock_lint.py ==="
    python3 "${repo_root}/scripts/lock_lint.py" --self-test
    python3 "${repo_root}/scripts/lock_lint.py" --root "${repo_root}"
    local ts_dir="${build_root}/thread-safety"
    echo "=== [thread-safety] configure (clang + -Werror=thread-safety-analysis) ==="
    cmake -S "${repo_root}" -B "${ts_dir}" "${generator_args[@]}" \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DCBL_THREAD_SAFETY=ON
    echo "=== [thread-safety] build (any off-lock access is a compile error) ==="
    cmake --build "${ts_dir}" -j "${jobs}"
  else
    not_run[thread-safety]="clang++ not installed"
    echo "=== [thread-safety] NOT RUN: clang++ not installed ==="
  fi
}

stage_secret_flow() {
  mkdir -p "${build_root}"
  local cxx="${CXX:-c++}"
  command -v "${cxx}" >/dev/null 2>&1 || cxx=g++
  echo "=== [secret-flow] lintlib + secret_flow_lint self-tests ==="
  python3 "${repo_root}/scripts/lintlib.py" --self-test
  python3 "${repo_root}/scripts/secret_flow_lint.py" --self-test
  echo "=== [secret-flow] static pair is valid C++ (${cxx} -fsyntax-only) ==="
  "${cxx}" -std=c++20 -fsyntax-only -I "${repo_root}/src" \
    "${repo_root}/tests/static/secret_flow_negative.cpp" \
    "${repo_root}/tests/static/secret_flow_positive.cpp"
  local armed="${build_root}/secret-flow-armed"
  local neg_log="${build_root}/secret_flow_negative.log"
  echo "=== [secret-flow] negative self-test (seeded secret-into-vartime MUST be flagged S1) ==="
  rm -rf "${armed}"
  mkdir -p "${armed}/src/demo"
  cp "${repo_root}/tests/static/secret_flow_negative.cpp" "${armed}/src/demo/"
  if python3 "${repo_root}/scripts/secret_flow_lint.py" --root "${armed}" \
      >"${neg_log}" 2>&1; then
    echo "secret-flow stage is NOT armed: the seeded secret-into-vartime" \
      "call in tests/static/secret_flow_negative.cpp passed the lint" >&2
    cat "${neg_log}" >&2
    exit 1
  fi
  grep -q ": S1: " "${neg_log}" || {
    echo "negative self-test failed for the wrong reason (no S1 finding):" >&2
    cat "${neg_log}" >&2
    exit 1
  }
  echo "=== [secret-flow] positive self-test (declassified twin must pass) ==="
  rm -f "${armed}/src/demo/secret_flow_negative.cpp"
  cp "${repo_root}/tests/static/secret_flow_positive.cpp" "${armed}/src/demo/"
  python3 "${repo_root}/scripts/secret_flow_lint.py" --root "${armed}"
  echo "=== [secret-flow] full-tree analysis ==="
  python3 "${repo_root}/scripts/secret_flow_lint.py" --root "${repo_root}"
}

stage_release() {
  run_config release -DCMAKE_BUILD_TYPE=Release
}

stage_asan_ubsan() {
  run_config asan-ubsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined"
}

stage_tsan() {
  run_config tsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="thread"
}

stage_ctcheck() {
  local ct_dir="${build_root}/ctcheck"
  echo "=== [ctcheck] configure ==="
  cmake -S "${repo_root}" -B "${ct_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug -DCBL_CTCHECK=ON
  echo "=== [ctcheck] build ==="
  cmake --build "${ct_dir}" -j "${jobs}" --target ctcheck
  echo "=== [ctcheck] self-test (harness must flag the injected leak) ==="
  "${ct_dir}/src/ct/ctcheck" --self-test
  echo "=== [ctcheck] secret audit over the crypto kernels ==="
  "${ct_dir}/src/ct/ctcheck"
  if command -v valgrind >/dev/null 2>&1; then
    echo "=== [ctcheck] valgrind backend (ctgrind-style) ==="
    valgrind --error-exitcode=1 --quiet "${ct_dir}/src/ct/ctcheck"
  else
    echo "=== [ctcheck] valgrind not installed; trace backend only ==="
  fi
}

stage_fuzz_smoke() {
  local fuzz_dir="${build_root}/fuzz-smoke"
  local fuzz_seconds="${CBL_FUZZ_SMOKE_SECONDS:-30}"
  echo "=== [fuzz-smoke] configure (ASan/UBSan + harness binaries) ==="
  cmake -S "${repo_root}" -B "${fuzz_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined" \
    -DCBL_FUZZ=ON
  echo "=== [fuzz-smoke] build ==="
  cmake --build "${fuzz_dir}" -j "${jobs}"
  local driver
  driver="$(cat "${fuzz_dir}/fuzz_driver.txt")"
  echo "=== [fuzz-smoke] driver: ${driver}, ${fuzz_seconds}s per harness ==="
  local harness name corpus
  for harness in "${fuzz_dir}"/fuzz/fuzz_*; do
    [[ -x "${harness}" ]] || continue
    name="$(basename "${harness}")"
    corpus="${repo_root}/fuzz/corpora/${name}"
    echo "=== [fuzz-smoke] ${name} ==="
    if [[ "${driver}" == "libfuzzer" ]]; then
      "${harness}" -max_total_time="${fuzz_seconds}" -max_len=8192 "${corpus}"
    else
      "${harness}" -seconds="${fuzz_seconds}" "${corpus}"
    fi
  done
}

stage_chaos_smoke() {
  local chaos_dir="${build_root}/chaos-smoke"
  local chaos_seed="${CBL_CHAOS_SEED:-20260806}"
  local chaos_queries="${CBL_CHAOS_QUERIES:-1000}"
  echo "=== [chaos-smoke] configure (ASan/UBSan) ==="
  cmake -S "${repo_root}" -B "${chaos_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined"
  echo "=== [chaos-smoke] build ==="
  cmake --build "${chaos_dir}" -j "${jobs}" --target test_chaos
  echo "=== [chaos-smoke] seed=${chaos_seed} queries=${chaos_queries}/plan ==="
  echo "=== [chaos-smoke] replay any failure with:" \
    "CBL_CHAOS_SEED=${chaos_seed} CBL_CHAOS_QUERIES=${chaos_queries}" \
    "${chaos_dir}/tests/test_chaos ==="
  CBL_CHAOS_SEED="${chaos_seed}" CBL_CHAOS_QUERIES="${chaos_queries}" \
    "${chaos_dir}/tests/test_chaos"
}

stage_crash_smoke() {
  local crash_dir="${build_root}/crash-smoke"
  local crash_seed="${CBL_CHAOS_SEED:-20260806}"
  echo "=== [crash-smoke] configure (ASan/UBSan) ==="
  cmake -S "${repo_root}" -B "${crash_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined"
  echo "=== [crash-smoke] build ==="
  cmake --build "${crash_dir}" -j "${jobs}" --target test_store test_chaos
  echo "=== [crash-smoke] durable-state suite (journal, snapshots, fault injection, recovery) ==="
  "${crash_dir}/tests/test_store"
  echo "=== [crash-smoke] seed=${crash_seed} ==="
  echo "=== [crash-smoke] replay any failure with:" \
    "CBL_CHAOS_SEED=${crash_seed} ${crash_dir}/tests/test_chaos" \
    "--gtest_filter='*CrashSweepAtEveryFsOpBoundary*:*StoreGremlins*' ==="
  CBL_CHAOS_SEED="${crash_seed}" "${crash_dir}/tests/test_chaos" \
    --gtest_filter='*CrashSweepAtEveryFsOpBoundary*:*StoreGremlins*'
}

stage_perf_smoke() {
  local perf_dir="${build_root}/perf-smoke"
  local perf_json="${perf_dir}/BENCH_throughput.json"
  echo "=== [perf-smoke] configure (Release) ==="
  cmake -S "${repo_root}" -B "${perf_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Release
  echo "=== [perf-smoke] build bench_throughput ==="
  cmake --build "${perf_dir}" -j "${jobs}" --target bench_throughput
  echo "=== [perf-smoke] run (--quick) ==="
  "${perf_dir}/bench/bench_throughput" --quick --json "${perf_json}"
  echo "=== [perf-smoke] sanity-check ${perf_json} ==="
  python3 - "${perf_json}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
results = data["results"]
assert results, "empty results"

# The batched encode kernel must never be slower than the scalar path at
# real batch sizes (>= 64); the full >=2x target is asserted by the
# acceptance benches, CI only guards against a regression to < 1x.
encode = {r["params"]: r["value"] for r in results
          if r["name"] == "kernel/batch_encode"}
assert encode, "no kernel/batch_encode records"
for batch in (64, 256):
    speedup = encode.get(f"batch={batch}")
    assert speedup is not None, f"missing batch={batch} record"
    assert speedup >= 1.0, f"batch_encode regressed: {speedup:.2f}x at batch={batch}"

qps = [r for r in results if r["name"] == "pipeline/qps"]
assert qps, "no pipeline/qps records"
assert all(r["value"] > 0 for r in qps), "pipeline served zero queries"

print(f"perf-smoke OK: batch_encode {encode['batch=64']:.2f}x @64, "
      f"{encode['batch=256']:.2f}x @256, {len(qps)} QPS points")
EOF
  local tlog_json="${perf_dir}/BENCH_tlog.json"
  echo "=== [perf-smoke] build bench_tlog ==="
  cmake --build "${perf_dir}" -j "${jobs}" --target bench_tlog
  echo "=== [perf-smoke] run bench_tlog (--quick) ==="
  "${perf_dir}/bench/bench_tlog" --quick --json "${tlog_json}"
  echo "=== [perf-smoke] sanity-check ${tlog_json} ==="
  python3 - "${tlog_json}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
results = data["results"]
assert results, "empty results"

# The whole point of the delta path: a signed one-step delta must be
# cheaper on the wire than the full bucket download it replaces, already
# at the lowest churn level (2 changed entries per 1k).
deltas = {r["params"]: r for r in results if r["name"] == "sync/delta_bytes"}
assert deltas, "no sync/delta_bytes records"
low = [r for p, r in deltas.items() if "churn=2per1k" in p]
assert low, "missing churn=2per1k record"
for r in low:
    assert r["value"] > 1.0, (
        f"delta sync regressed: delta={r['bytes_per_query']:.0f}B is not "
        f"smaller than the full download ({r['params']})")

full = [r for r in results if r["name"] == "sync/full_bytes"]
assert full and all(r["bytes_per_query"] > 0 for r in full), \
    "no/empty sync/full_bytes record"
verify = [r for r in results if r["name"].startswith("verify/")]
assert verify and all(r["ns_per_op"] > 0 for r in verify), \
    "missing verify timings"

ratios = ", ".join(f"{r['params'].split(',')[1]}={r['value']:.1f}x"
                   for r in deltas.values())
print(f"perf-smoke OK: tlog delta vs full download: {ratios}")
EOF
  local store_json="${perf_dir}/BENCH_store.json"
  echo "=== [perf-smoke] build bench_store ==="
  cmake --build "${perf_dir}" -j "${jobs}" --target bench_store
  echo "=== [perf-smoke] run bench_store (--quick) ==="
  (cd "${perf_dir}" && "${perf_dir}/bench/bench_store" --quick \
    --json "${store_json}")
  echo "=== [perf-smoke] sanity-check ${store_json} ==="
  python3 - "${store_json}" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
results = data["results"]
assert results, "empty results"

def records_in(params):
    return int(params.split("records=")[1].split(",")[0])

appends = [r for r in results if r["name"] == "journal/append"]
assert appends and all(r["ns_per_op"] > 0 for r in appends), \
    "missing/zero journal append timings"
snaps = [r for r in results if r["name"] == "snapshot/commit"]
assert snaps and all(r["ns_per_op"] > 0 for r in snaps), \
    "missing/zero snapshot commit timings"

# The durability contract CI actually guards: recovery must hand back
# every record a synced append promised (no silent truncation, no
# checksum rejects on our own writes).
for name in ("journal/recover", "store/load"):
    recs = [r for r in results if r["name"] == name]
    assert recs, f"no {name} records"
    for r in recs:
        want = records_in(r["params"])
        assert r["value"] == want, (
            f"{name} lost records: replayed {r['value']:.0f} of {want}")

mem_append = next(r["ns_per_op"] for r in appends
                  if "fs=mem" in r["params"])
print(f"perf-smoke OK: store append {mem_append:.0f}ns (mem), "
      "recovery replayed every record")
EOF
}

timing_summary=()
green=()
skipped=""
for stage in "${all_stages[@]}"; do
  want "${stage}" || continue
  stage_t0="$(date +%s)"
  "stage_${stage//-/_}"
  if [[ -n "${not_run[${stage}]:-}" ]]; then
    timing_summary+=("$(printf '%-14s NOT RUN (%s)' "${stage}" \
      "${not_run[${stage}]}")")
    skipped+="; ${stage} NOT RUN (${not_run[${stage}]})"
  else
    timing_summary+=("$(printf '%-14s %5ds' "${stage}" \
      "$(( $(date +%s) - stage_t0 ))")")
    green+=("${stage}")
  fi
done

echo "=== CI timing summary (wall clock) ==="
printf '  %s\n' "${timing_summary[@]}"
echo "=== CI OK: stages [${green[*]}] green${skipped} ==="
