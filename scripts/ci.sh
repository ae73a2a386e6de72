#!/usr/bin/env bash
# CI driver: configure + build + run the full test suite, then (optionally)
# the sanitizer and coverage configurations.
#
# Usage:
#   scripts/ci.sh            # default build + ctest
#   scripts/ci.sh tsan       # ThreadSanitizer build; runs the concurrency tests
#   scripts/ci.sh asan       # Address+UB sanitizer build; full suite + fuzz
#   scripts/ci.sh ubsan      # UBSan-only build; full suite
#   scripts/ci.sh obs-off    # QMATCH_OBS=OFF build; full suite (kill switch)
#   scripts/ci.sh fault-off  # QMATCH_FAULT=OFF build; full suite (kill switch)
#   scripts/ci.sh chaos      # chaos suite under ASan and TSan, fixed seeds
#   scripts/ci.sh stress     # overload suite under ASan and TSan + load bench
#   scripts/ci.sh recovery   # crash-point recovery suite under ASan and UBSan
#   scripts/ci.sh serve      # net protocol+fuzz+chaos under ASan, serving bench
#   scripts/ci.sh ha         # HA suite: replication (incl. wire fuzz),
#                            # resilient client, and the failover + split-brain
#                            # chaos harnesses under ASan and TSan, plus the
#                            # gated failover-gap and partition-heal bench rows
#   scripts/ci.sh perf       # Fig.4 runtime bench vs bench/baselines.json,
#                            # plus the warm-start bench (bit-identical warm
#                            # answers, Protein hit >= 100x faster than cold)
#   scripts/ci.sh coverage   # --coverage build; enforces the line floor
#   scripts/ci.sh all        # all of the above
#   scripts/ci.sh loc [base] # added/removed/net production lines (src/ and
#                            # examples/) of the working tree vs a git ref
#                            # (default HEAD~1), files moved out of them on
#                            # their own line; no build
#   scripts/ci.sh orphans    # fails on any src/ header that no production
#                            # file includes; no build (also run by default)
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-default}"
JOBS="${JOBS:-$(nproc)}"

# Line-coverage floor (percent) enforced per instrumented directory.
COVERAGE_FLOOR=70
COVERAGE_DIRS=(src/core src/obs src/match src/net)

run_default() {
  run_orphans
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure
}

run_tsan() {
  # ThreadSanitizer: the parallel engine, thread pool (incl. the soak
  # layer), the sharded metric/tracer paths and the schema memos (Flat,
  # Fingerprint) must be race-free. Only the concurrency-relevant tests
  # run here — TSan slows everything ~10x, and the rest of the suite is
  # single-threaded.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" \
        --target common_thread_pool_test common_thread_pool_soak_test \
                 core_engine_test obs_test xsd_schema_test
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure \
        -R 'common_thread_pool_test|common_thread_pool_soak_test|core_engine_test|obs_test|xsd_schema_test'
}

run_asan() {
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
  # halt_on_error turns any ASan/UBSan report into a nonzero exit, so a
  # leak or UB hit anywhere in the suite fails CI rather than scrolling by.
  local san_opts="halt_on_error=1:abort_on_error=1:detect_leaks=1"
  ASAN_OPTIONS="${san_opts}" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure
  # The fuzz layer is where memory bugs actually surface; run it explicitly
  # (it is part of the suite above too — this guarantees it even when the
  # suite selection changes) and fail on any sanitizer report.
  ASAN_OPTIONS="${san_opts}" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -L fuzz
}

run_ubsan() {
  # UBSan on its own (the address pairing in run_asan can mask some UB
  # reports, and the lean instrumentation is fast enough for everything).
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=undefined
  cmake --build build-ubsan -j "${JOBS}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-ubsan --output-on-failure
}

# Chaos suite: seeded fault schedules over the engine/corpus pipeline,
# under both ASan (leaks/UAF on degraded paths) and TSan (races between
# the fill, the canceller and the failpoint registry). The seed set is
# pinned so CI failures reproduce locally with the same env var.
CHAOS_SEEDS="${QMATCH_CHAOS_SEEDS:-1,2,3,4,5}"

run_chaos() {
  # `-L chaos` runs EVERY chaos-labelled binary (engine, socket, failover
  # and split-brain schedules), so all of them must be built here.
  local chaos_targets=(chaos_engine_test net_chaos_test net_failover_test
                       net_splitbrain_test)

  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" --target "${chaos_targets[@]}"
  QMATCH_CHAOS_SEEDS="${CHAOS_SEEDS}" \
  ASAN_OPTIONS="halt_on_error=1:abort_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -C chaos -L chaos

  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target "${chaos_targets[@]}"
  QMATCH_CHAOS_SEEDS="${CHAOS_SEEDS}" \
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -C chaos -L chaos
}

# Crash-recovery suite: the persist_recovery_test harness enumerates every
# persist.* failpoint hit in the save/compact sequence, kills the save
# mid-flight and requires old-or-new recovered state. ASan catches
# use-after-free/over-reads on the torn-state load paths; UBSan runs
# separately because the address pairing can mask some UB reports.
run_recovery() {
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" --target persist_recovery_test
  ASAN_OPTIONS="halt_on_error=1:abort_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -C recovery -L recovery

  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=undefined
  cmake --build build-ubsan -j "${JOBS}" --target persist_recovery_test
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-ubsan --output-on-failure -C recovery -L recovery
}

# Overload/stress suite: admission control, memory budgets and the
# degradation ladder (everything labelled "overload") under both ASan
# (leaks on shed/exhausted paths) and TSan (races between admitters,
# releasers and the pressure reads), then the offered-load bench, whose
# table is the shed-rate/goodput column for EXPERIMENTS.md: throughput and
# shed rate at 1x, 4x and 16x of the configured admission capacity.
run_stress() {
  local overload_targets=(common_memory_budget_test common_admission_test
                          core_overload_test core_engine_cache_soak_test)

  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" --target "${overload_targets[@]}"
  ASAN_OPTIONS="halt_on_error=1:abort_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -L overload

  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target "${overload_targets[@]}"
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -L overload

  # The load table runs uninstrumented: sanitizer slowdowns would distort
  # the throughput column.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target bench_overload
  ./build/bench/bench_overload
}

# Serving suite: the socket face end to end. Wire-format conformance and
# the seeded frame fuzzer under ASan (where codec memory bugs surface),
# the socket-path chaos schedules under ASan and TSan (the loop thread,
# the workers and the failpoint registry race here if anywhere), then
# uninstrumented: the serving latency rows against bench/baselines.json
# and the offered-load table (flat goodput + typed overload verdicts).
run_serve() {
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" \
        --target net_protocol_test net_fuzz_test net_chaos_test
  local san_opts="halt_on_error=1:abort_on_error=1:detect_leaks=1"
  ASAN_OPTIONS="${san_opts}" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure \
        -R 'net_protocol_test|net_fuzz_test'
  ASAN_OPTIONS="${san_opts}" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -C chaos -R net_chaos_test

  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target net_chaos_test
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -C chaos -R net_chaos_test

  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target bench_serving
  ./build/bench/bench_serving --benchmark_format=json \
    | python3 scripts/check_perf.py bench/baselines.json
  ./build/bench/bench_serving --load-table
}

# HA suite: the replication log/wire layer (incl. the seeded wire fuzzer),
# the resilient client's retry/failover rules and the role/readiness
# surface as plain tests, then the seeded failover chaos harness (kill the
# primary, promote the standby, require bit-identical acknowledged
# results) and the split-brain harness (partition, promote on the far
# side, drive both sides, heal; require at most one epoch's acks per
# request and the fenced primary re-joining as a standby of the winner) —
# all under both ASan (leaks on the teardown/reconnect paths) and TSan
# (the replication thread, the heartbeat/probe timers and the promote flip
# race here if anywhere). Uninstrumented afterwards: the client-observed
# failover-gap and partition-heal bench rows, gated against
# bench/baselines.json.
run_ha() {
  local ha_targets=(replica_log_test replica_wire_fuzz_test
                    net_resilient_client_test net_ha_test
                    net_failover_test net_splitbrain_test)

  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=address
  cmake --build build-asan -j "${JOBS}" --target "${ha_targets[@]}"
  local san_opts="halt_on_error=1:abort_on_error=1:detect_leaks=1"
  ASAN_OPTIONS="${san_opts}" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure \
        -R 'replica_log_test|replica_wire_fuzz_test|net_resilient_client_test|net_ha_test'
  QMATCH_CHAOS_SEEDS="${CHAOS_SEEDS}" \
  ASAN_OPTIONS="${san_opts}" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -C chaos \
        -R 'net_failover_test|net_splitbrain_test'

  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQMATCH_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}" --target "${ha_targets[@]}"
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure \
        -R 'replica_log_test|replica_wire_fuzz_test|net_resilient_client_test|net_ha_test'
  QMATCH_CHAOS_SEEDS="${CHAOS_SEEDS}" \
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -C chaos \
        -R 'net_failover_test|net_splitbrain_test'

  # The failover-gap and partition-heal rows run uninstrumented: they are
  # wall-clock outage/recovery measurements, and sanitizer slowdowns would
  # distort them.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target bench_serving
  ./build/bench/bench_serving \
      --benchmark_filter='FailoverGap|PartitionHeal' \
      --benchmark_format=json \
    | python3 scripts/check_perf.py bench/baselines.json
}

# Perf regression gate: the Fig. 4 runtime bench (which includes the
# Protein row the SoA kernel was built for) against the checked-in
# baselines, failing on >15% regression per row, then the warm-start bench,
# which exits nonzero unless every recovered answer is bit-identical and a
# Protein cache hit is at least 100x faster than the cold match. Runs
# uninstrumented in Release. After an intentional perf change, regenerate with
#   ./build/bench/bench_fig4_runtime --benchmark_format=json \
#       | python3 scripts/check_perf.py --update bench/baselines.json
# and review the bench/baselines.json diff like any other code change.
run_perf() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target bench_fig4_runtime bench_warmstart
  ./build/bench/bench_fig4_runtime --benchmark_format=json \
    | python3 scripts/check_perf.py bench/baselines.json
  ./build/bench/bench_warmstart
}

run_obs_off() {
  # The observability kill switch: everything must still compile, link and
  # pass with every instrumentation hook compiled down to a no-op.
  cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release -DQMATCH_OBS=OFF
  cmake --build build-obs-off -j "${JOBS}"
  ctest --test-dir build-obs-off --output-on-failure
}

run_fault_off() {
  # The fault-injection kill switch: with every failpoint compiled down to
  # a no-op the library must still build warning-clean and pass the suite
  # (the chaos binary itself is not built in this configuration).
  cmake -B build-fault-off -S . -DCMAKE_BUILD_TYPE=Release -DQMATCH_FAULT=OFF
  cmake --build build-fault-off -j "${JOBS}"
  ctest --test-dir build-fault-off --output-on-failure
}

# Prints "<percent> <dir>" per coverage directory, aggregated over the .cc
# files compiled into the qmatch library. Prefers gcovr when installed;
# otherwise falls back to parsing `gcov -n` summaries (the container ships
# plain gcov only).
report_coverage() {
  local builddir="$1" objroot dir
  objroot="${builddir}/src/CMakeFiles/qmatch.dir"
  for dir in "${COVERAGE_DIRS[@]}"; do
    local subdir="${objroot}/${dir#src/}"
    if [[ ! -d "${subdir}" ]]; then
      echo "0 ${dir} (no coverage data at ${subdir})"
      continue
    fi
    find "${subdir}" -name '*.gcda' -print0 | sort -z | \
      xargs -0 -r gcov -n 2>/dev/null | \
      awk -v dir="${dir}" '
        /^File / { f = $0; sub(/^File /, "", f); gsub(/\047/, "", f) }
        /^Lines executed:/ {
          if (f ~ ("(^|/)" dir "/") && f ~ /\.cc$/) {
            pct = $0; sub(/^Lines executed:/, "", pct); sub(/%.*/, "", pct)
            n = $0; sub(/.* of /, "", n)
            covered += pct * n / 100.0; total += n
          }
          f = ""
        }
        END { printf "%.1f %s (%d/%d lines)\n",
                     (total ? 100.0 * covered / total : 0), dir,
                     covered, total }'
  done
}

run_coverage() {
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j "${JOBS}"
  ctest --test-dir build-cov --output-on-failure

  if command -v gcovr >/dev/null 2>&1; then
    local filters=()
    local dir
    for dir in "${COVERAGE_DIRS[@]}"; do filters+=(--filter "${dir}/"); done
    gcovr --root . "${filters[@]}" --fail-under-line "${COVERAGE_FLOOR}" \
          --print-summary build-cov
    return
  fi

  echo "gcovr not found; using gcov fallback"
  local failed=0 line pct
  while IFS= read -r line; do
    echo "coverage: ${line}"
    pct="${line%% *}"
    if awk -v p="${pct}" -v floor="${COVERAGE_FLOOR}" \
           'BEGIN { exit !(p + 0 < floor) }'; then
      echo "coverage: FAILED floor of ${COVERAGE_FLOOR}% on: ${line}" >&2
      failed=1
    fi
  done < <(report_coverage build-cov)
  return "${failed}"
}

# Net production LoC: what the working tree adds and removes under src/ and
# examples/ relative to a base ref, per directory and in total, from
# `git diff --numstat` (binary files count as 0). A file git detects as
# renamed from there to outside (e.g. into tests/) is not a deletion: its
# base lines go on a separate "moved" line, outside the net total.
run_loc() {
  local base="$1"
  awk -v base="${base}" '
    FILENAME == ARGV[1] {
      if ($1 ~ /^R/ && $2 ~ /^(src|examples)\// &&
          $3 !~ /^(src|examples)\//) moved_to[$2] = $3
      next
    }
    $3 in moved_to { files += 1; moved += $2; next }
    { dir = $3; sub(/\/.*/, "", dir)
      add[dir] += $1; del[dir] += $2; added += $1; removed += $2 }
    END {
      for (dir in add) {
        printf "%-9s +%d -%d net %+d\n", dir "/", add[dir], del[dir],
               add[dir] - del[dir] | "sort"
      }
      close("sort")
      printf "total     +%d -%d net %+d (vs %s)\n", added, removed,
             added - removed, base
      printf "moved     %d line(s) in %d file(s) out of src/ and examples/\n",
             moved, files
    }' <(git diff -M --name-status "${base}" -- src examples tests) \
       <(git diff --numstat --no-renames "${base}" -- src examples)
}

# Every header under src/ must be included by production code: another file
# in src/ (its own .cc does not count), examples/, bench/ or perfbench/.
# Code that only tests reach belongs under tests/.
run_orphans() {
  local header own users orphans=0
  while IFS= read -r header; do
    own="${header%.h}.cc"
    users=$(grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
                 "#include \"${header#src/}\"" src examples bench perfbench |
            grep -vxF -e "${own}" || true)
    if [[ -z "${users}" ]]; then
      echo "orphans: ${header} is included by no production file" >&2
      orphans=$((orphans + 1))
    fi
  done < <(find src -name '*.h' | sort)
  echo "orphans: ${orphans} header(s) reached only by tests"
  [[ "${orphans}" -eq 0 ]]
}

case "${MODE}" in
  default)   run_default ;;
  tsan)      run_tsan ;;
  asan)      run_asan ;;
  ubsan)     run_ubsan ;;
  obs-off)   run_obs_off ;;
  fault-off) run_fault_off ;;
  chaos)     run_chaos ;;
  stress)    run_stress ;;
  recovery)  run_recovery ;;
  serve)     run_serve ;;
  ha)        run_ha ;;
  perf)      run_perf ;;
  coverage)  run_coverage ;;
  loc)       run_loc "${2:-HEAD~1}" ;;
  orphans)   run_orphans ;;
  all)       run_default; run_tsan; run_asan; run_ubsan; run_obs_off
             run_fault_off; run_chaos; run_stress; run_recovery
             run_serve; run_ha; run_perf; run_coverage ;;
  *) echo "unknown mode '${MODE}'" \
          "(default|tsan|asan|ubsan|obs-off|fault-off|chaos|stress|recovery|serve|ha|perf|coverage|all|loc|orphans)" >&2
     exit 2 ;;
esac
