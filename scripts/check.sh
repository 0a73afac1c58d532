#!/usr/bin/env bash
# Full verification matrix: builds and runs the test suite in five
# configurations — plain, AddressSanitizer+UBSan, ThreadSanitizer, Release
# and Debug — and builds a sixth, MinSizeRel. The ASan leg's UBSan
# includes float-cast-overflow and every report is fatal (CMakeLists.txt),
# so undefined behaviour fails a test rather than scrolling past in its
# log. The TSan leg is what proves the concurrent parts free of data
# races: readers sharing the engine latch beside the write-churn writer
# (server workers' cursor batches and catalog reads run concurrently under
# the shared latch; only statements and loads take it exclusive), the
# network server's poll thread and worker pool, the one middleware the
# workers share (its plan cache, statistics, cost model and idle list of
# DBMS connections), and the metrics registry every thread records into. The Release leg exists
# because the build uses -Werror and GCC's inlining-driven warnings
# (-Wrestrict, -Wformat-truncation, -Wnonnull, -Warray-bounds) fire only at
# -O3: every CMake build type must compile, and the optimized one is what
# benches run. The Debug leg (-O0, assertions on) runs the whole suite too;
# the MinSizeRel leg (-Os, whose inlining differs from -O3's) only
# compiles, since its tests would repeat the Release leg's.
#
# The Release leg also runs the paper's shape checks: bench_query1_fig8,
# bench_query2_fig10, bench_query3_fig11a and bench_query4_fig11b, once
# each, one after another, at TANGO_BENCH_SCALE=0.2 (about 45 s together on
# a 4-vCPU host). Each prints PASS/FAIL lines for the orderings its figure
# reports (which plan wins, by roughly what ratio, which one the optimizer
# picks) and exits non-zero on a FAIL, which fails the run. They are part of
# correctness: a cheaper DBMS operator narrows the paper's margins. They are
# deliberately not ctest tests, so the default `ctest` run leaves them out:
# their timing comparisons would contend with the other suites under
# `ctest -j`, and only an optimized build times what the paper timed.
#
# The Release leg then prints the wire codec's ledger, ungated: Crc32 with
# each kernel (the PCLMULQDQ fold and slicing-by-8) on 1 MiB, and block
# encode and decode on a Q1-like int block and a Q3-like block of names,
# in MB/s (bench_operators with --benchmark_filter; a few seconds). Every
# byte crossing either wire runs through these, so each log records their
# speed on the host it ran on. Next to it, also ungated, the middleware
# operator ledger: TAGGR^M, TJOIN^M on Q3's shape, MERGEJOIN^M and PROJECT
# (moving columns, and with one computed item), each drained through one
# reused block (bench_operators again; about ten seconds), so each log also
# records what the paper's own algorithms cost on that host.
#
# Last, the Release leg builds the repository benchmark (perfbench/, which
# compiles ../src on its own into .bench_build/ and reads the middleware's
# execution records) and smoke-runs both workloads at a reduced size with
# perfbench/test_smoke.py, so a src/ API change that breaks the benchmark
# fails here rather than only in a benchmark run.
#
# The robustness suites (fault_matrix_test, wire_fuzz_test,
# dbms_exec_ops_test, dbms_planner_test, recovery_test) are additionally
# invoked by name under both sanitizer legs: the fault matrix and the wire
# fuzzer are exactly the tests whose failure mode is memory corruption / a
# race in the recovery paths, so they must stay green under ASan and TSan
# even if the main ctest selection is ever narrowed. dbms_exec_ops_test
# joins them because the table scan evaluates WHERE on the page's encoded
# rows through the codec's per-column reader (TupleView), the joins test
# their residual on a scratch row before building the output, and the hash
# join's grouped build moves each build row out of the child's block into
# (hash, input position) order behind an open-addressing directory: its
# differential suites walk tombstoned and relocated slots, rejected join
# candidates and the build's runs, and ASan is what proves no read leaves a
# slot's bytes or a run and no moved-from row is reused; wire_fuzz_test
# fuzzes the same reader on damaged encodings. dbms_planner_test joins
# them for projection pushdown:
# every scan and join input is narrowed to the columns its statement reads,
# and its differential suite against an engine-free oracle is what catches
# a column bound to the wrong position.
#
# The observability suites (obs_test, trace_test, explain_analyze_test) get
# the same treatment — the metrics registry and trace recorder are written
# to concurrently by server workers and any thread that records, so TSan is
# their real referee. Every leg additionally fails if any test binary
# printed a metrics-registry leak warning (an expect-zero gauge, e.g.
# server.queue_depth or query.active, that did not drain back to zero).
#
# The adaptive-plan-management suites (plan_cache_test, feedback_test,
# fingerprint_test) join the by-name matrix too: the plan cache (one LRU
# under one mutex) and the feedback store are hit concurrently from every
# query thread, and plan_cache_test's ConcurrentHammer only means something
# under TSan.
#
# The durability suites (wal_recovery_test, wal_crash_loop, write_churn_test)
# are the write path's referee: the crash matrix kills and recovers the
# engine at injected LSN boundaries (torn tails, partial fsyncs; wal_crash_loop
# is the same matrix at every boundary), and the churn tests race the
# temporal-update writer against live queries, four readers at once on the
# shared latch — exactly the code whose failure mode is a racy log append,
# a reader seeing a half-applied write, or a use-after-free in undo, so
# they must stay green under ASan and TSan.
#
# The front-end and end-to-end suites: sql_parser_fuzz_test fuzzes the
# lexer, the parsers and the plan cache's fingerprint canon (the slot-style
# plan rendering), where a bad read or an overflow is exactly what ASan and
# UBSan catch; integration_test runs the paper's queries through the whole
# pipeline, so every layer runs instrumented at least once.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

ROBUSTNESS_SUITES='^(fault_matrix_test|wire_fuzz_test|dbms_exec_ops_test|dbms_planner_test|recovery_test)$'
OBS_SUITES='^(obs_test|trace_test|explain_analyze_test)$'
ADAPT_SUITES='^(plan_cache_test|feedback_test|fingerprint_test)$'
# The capacity differential: exec_property_test drains every operator at
# block capacities {1,2,7,1024} against an engine-free oracle, then re-Inits
# it once — ASan catches a moved-from row reused, so the suite runs under
# both sanitizers by name.
VECTOR_SUITES='^(exec_property_test)$'
DURABILITY_SUITES='^(wal_recovery_test|wal_crash_loop|write_churn_test)$'
END_TO_END_SUITES='^(sql_parser_fuzz_test|integration_test)$'
# The network service: server_test drives a real PollingServer over
# loopback (poll thread + worker pool + concurrent clients sharing the one
# middleware — its statistics, cost model, feedback store and plan cache —
# and the engine latch: TSan's bread and butter), and server_soak is the
# same binary's mixed adversarial workload with its iteration counts
# multiplied. middleware_test joins them for the middleware the workers
# share: its threads test calls one Middleware from four threads, with
# cost feedback on and off, each call on a DBMS connection of its own.
# connection_test holds the engine latch's own tests: writer preference,
# latch-wait metrics, and sessions allocated from many threads.
# wire_fuzz_test (above) covers the protocol codec.
SERVER_SUITES='^(server_test|server_soak|connection_test|middleware_test)$'

# The paper's shape checks (Figures 8, 10, 11(a) and 11(b)), Release leg only,
# and the feedback loop's: bench_calibration's Part 2 is the one check that
# cost-factor feedback flips a plan (TAGGR^D -> TAGGR^M after wrong p_taggd*).
SHAPE_BENCHES=(bench_query1_fig8 bench_query2_fig10 bench_query3_fig11a bench_query4_fig11b
               bench_calibration)

# A stuck test under a sanitizer leg should fail the run, not hang it.
CTEST_TIMEOUT=600

# ctest rewrites LastTest.log on every invocation, so this runs after each
# one: no test binary may print a metrics-registry leak warning.
check_leaks() {
  local name="$1" dir="$2"
  if grep -q "metrics-registry leak" "${dir}/Testing/Temporary/LastTest.log"; then
    echo "=== ${name}: FAILED — metrics-registry leak warnings in test output ==="
    grep "metrics-registry leak" "${dir}/Testing/Temporary/LastTest.log"
    exit 1
  fi
}

run_config() {
  local name="$1" dir="$2" sanitize="$3" build_type="${4:-}"
  echo "=== ${name}: configure + build + ctest (${dir}) ==="
  local type_flag=()
  if [[ -n "${build_type}" ]]; then
    type_flag=(-DCMAKE_BUILD_TYPE="${build_type}")
  fi
  cmake -B "${dir}" -S . -DTANGO_SANITIZE="${sanitize}" "${type_flag[@]}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  # Sanitizer legs skip the `slow`-labeled suites in the broad pass (they
  # run 5-20x slower instrumented); the ones that matter under sanitizers
  # are then invoked by name below, so nothing slow is actually skipped —
  # it is just targeted. The plain leg runs everything.
  local label_filter=()
  if [[ -n "${sanitize}" ]]; then
    label_filter=(-LE slow)
  fi
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" --timeout "${CTEST_TIMEOUT}" "${label_filter[@]}")
  check_leaks "${name}" "${dir}"
  if [[ -n "${sanitize}" ]]; then
    echo "=== ${name}: robustness suites (fault matrix + wire fuzz + scan + planner + recovery) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${ROBUSTNESS_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: observability suites (metrics + trace + explain analyze) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${OBS_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: adaptive suites (plan cache + feedback + fingerprint) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${ADAPT_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: vectorization suites (capacity differential) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${VECTOR_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: durability suites (WAL crash matrix + crash loop + write churn) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${DURABILITY_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: server suites (polling server + soak + shared middleware) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${SERVER_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: front-end and end-to-end suites (parser fuzz + integration) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${END_TO_END_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
  fi
  if [[ "${build_type}" == "Release" ]]; then
    echo "=== ${name}: paper shape checks (TANGO_BENCH_SCALE=0.2) ==="
    for bench in "${SHAPE_BENCHES[@]}"; do
      echo "--- ${bench}"
      TANGO_BENCH_SCALE=0.2 "${dir}/bench/${bench}"
    done
    echo "=== ${name}: wire codec ledger (bench_operators, ungated) ==="
    "${dir}/bench/bench_operators" \
      --benchmark_filter='BM_Crc32|BM_PutRowBlock|BM_GetRowBlock'
    echo "=== ${name}: middleware operator ledger (bench_operators, ungated) ==="
    "${dir}/bench/bench_operators" \
      --benchmark_filter='BM_TAggrMiddleware|BM_TJoinMiddleware|BM_MergeJoinMiddleware|BM_ProjectColumns'
    echo "=== ${name}: benchmark build + smoke run (perfbench/test_smoke.py) ==="
    python3 perfbench/test_smoke.py
  fi
  echo "=== ${name}: OK ==="
  echo
}

build_only() {
  local name="$1" dir="$2" build_type="$3"
  echo "=== ${name}: configure + build (${dir}) ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${name}: OK ==="
  echo
}

run_config "plain"   build           ""
run_config "asan"    build-asan      address
run_config "tsan"    build-tsan      thread
run_config "release" build-release   ""        Release
run_config "debug"   build-debug     ""        Debug
build_only "minsizerel" build-minsizerel MinSizeRel

echo "all configurations passed"
