#!/usr/bin/env bash
# Local equivalent of .github/workflows/ci.yml: release gate, sanitizer
# gate, and the static-analysis gate.  Tools that are not installed are
# skipped with a notice instead of failing, so the script is useful on
# minimal machines; CI runs the full set.
#
# Usage: ci/run_checks.sh [release|sanitize|tsan|lint|lint-strict|bench|
#                          names|svc|loadgen|all]
# (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."
what="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

note() { printf '\n== %s ==\n' "$*"; }

run_release() {
  note "release gate: -Werror build, tests at off and full check levels"
  cmake --preset werror
  cmake --build --preset werror -j "${jobs}"
  ctest --test-dir build-werror --output-on-failure -j "${jobs}"
  ICBDD_CHECK_LEVEL=full ctest --test-dir build-werror --output-on-failure \
    -j "${jobs}"
  run_test_names build-werror
  # The paper's termination procedure has no engine caller; this keeps it
  # built and exercised against the tuple recursion (exit 1 on disagreement).
  ./build-werror/bench/ablation_cofactor --depth 8
}

# gtest names a parameterized case after its parameter, printed as raw bytes
# when the type has no PrintTo; padding bytes in such a parameter are
# uninitialized, so the names ctest registers change from run to run and
# build to build.  Three listings (address layout randomized, one with a
# padded environment) must agree byte for byte.
run_test_names() {
  note "test-name gate: parameterized test names are reproducible"
  local bin="$1/tests/icbdd_tests"
  "${bin}" --gtest_list_tests > "$1/test-names-1.txt"
  "${bin}" --gtest_list_tests > "$1/test-names-2.txt"
  ICBDD_NAME_PROBE="$(printf '%4099s' '')" "${bin}" --gtest_list_tests \
    > "$1/test-names-3.txt"
  local n
  for n in 2 3; do
    if ! diff "$1/test-names-1.txt" "$1/test-names-${n}.txt"; then
      echo "test names differ between listings: give the parameter type a" \
           "PrintTo or make it padding-free" >&2
      return 1
    fi
  done
  echo "ok: $(grep -c '^  ' "$1/test-names-1.txt") test names reproducible"
}

run_bench_json() {
  note "observability gate: bench --json + ICBDD_TRACE schema validation"
  ICBDD_TRACE=build-werror/bench-trace.jsonl \
    ./build-werror/bench/table1_fifo --json --depth 3 \
    > build-werror/bench-table1.jsonl
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
lines = [json.loads(l)
         for l in open('build-werror/bench-table1.jsonl') if l.strip()]
header, cells = lines[0], lines[1:]
assert header['schema'] == 'icbdd-bench-v1', header
assert header['cells'] == len(cells), (header['cells'], len(cells))
for c in cells:
    for key in ('group', 'method', 'verdict', 'time_s', 'iterations',
                'peak_iterate_nodes', 'member_sizes', 'metrics'):
        assert key in c, (key, c)
    # Packed 16-byte nodes plus the true-footprint term (refcount side
    # table): mem_bytes is at least the packed arena, never again the old
    # 24-bytes/node layout and never *under* the arena it accounts for
    # (docs/node_layout.md).
    assert c['mem_bytes'] >= c['peak_allocated_nodes'] * 16, \
        ('mem accounting lost the packed arena term', c['mem_bytes'],
         c['peak_allocated_nodes'])
    assert c['mem_bytes'] < c['peak_allocated_nodes'] * 24 + (1 << 20), \
        ('mem accounting ballooned past the packed layout', c['mem_bytes'],
         c['peak_allocated_nodes'])
    histos = c['metrics'].get('histograms', {})
    # The per-op apply latency timers were deleted (they double-counted
    # nested ops and cost time on every public apply); keep them out.
    assert not any(k.startswith('bdd.apply.') for k in histos), \
        ('deleted bdd.apply.* latency histogram is back', sorted(histos))
    for name, summary in histos.items():
        for key in ('count', 'sum', 'p50', 'p90', 'p99'):
            assert key in summary, (name, key, summary)
events = [json.loads(l)
          for l in open('build-werror/bench-trace.jsonl') if l.strip()]
assert any(e['ev'] == 'run_end' for e in events), 'trace has no run_end'
print(f"ok: {len(cells)} bench cells, {len(events)} trace events")
EOF
  else
    echo "python3 not installed -- schema validation skipped (CI runs it)"
  fi

  note "GC-share gate: no Table 1 FIFO cell over 25% of its time in GC"
  ./build-werror/bench/table1_fifo --json --jobs 1 \
    > build-werror/bench-table1-full.jsonl
  if command -v python3 >/dev/null 2>&1; then
    python3 ci/gc_share_gate.py build-werror/bench-table1-full.jsonl
  else
    echo "python3 not installed -- GC-share gate skipped (CI runs it)"
  fi

  note "reorder gate: table_reorder node traffic pinned to BENCH_reorder.json"
  ./build-werror/bench/table_reorder --json --jobs 1 \
    > build-werror/bench-reorder.jsonl
  if command -v python3 >/dev/null 2>&1; then
    python3 ci/reorder_gate.py build-werror/bench-reorder.jsonl \
      BENCH_reorder.json
  else
    echo "python3 not installed -- reorder gate skipped (CI runs it)"
  fi

  note "observability gate: doctor --metrics-prom exposition"
  ./build-werror/examples/icbdd_doctor --model fifo --metrics-prom \
    > build-werror/doctor-prom.txt
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import re
import sys
sys.path.insert(0, 'ci')
from loadgen import check_grammar
text = "".join(l for l in open('build-werror/doctor-prom.txt')
               if l.startswith(('#', 'icbdd_')))
errors = check_grammar(text)
assert not errors, errors[:5]
assert not re.search(r'^# TYPE icbdd_bdd_apply_', text, re.M), \
    'deleted apply-latency histogram family is back'
print(f"ok: {len(text.splitlines())} exposition lines")
EOF
  fi
}

run_svc() {
  note "service gate: icbdd_serve NDJSON smoke (rejection + kill/resume)"
  if command -v python3 >/dev/null 2>&1; then
    python3 ci/svc_smoke.py ./build-werror/examples/icbdd_serve
  else
    echo "python3 not installed -- service smoke skipped (CI runs it)"
  fi
}

run_loadgen() {
  note "load gate: ${1:-240}-job soak against icbdd_serve --metrics-port"
  if command -v python3 >/dev/null 2>&1; then
    python3 ci/loadgen.py --serve "${2:-./build-werror/examples/icbdd_serve}" \
      --jobs "${1:-240}" --workers 4 \
      --summary-json "${3:-build-werror/loadgen-summary.json}"
  else
    echo "python3 not installed -- load soak skipped (CI runs it)"
  fi
}

run_sanitize() {
  note "sanitizer gate: ASan + UBSan, cheap per-op checking"
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${jobs}"
  ICBDD_CHECK_LEVEL=cheap \
  ASAN_OPTIONS=strict_string_checks=1:detect_stack_use_after_return=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}"
}

run_tsan() {
  note "thread-sanitizer gate: parallel scheduler raced under --jobs 4"
  cmake --preset tsan
  cmake --build --preset tsan -j "${jobs}"
  TSAN_OPTIONS=halt_on_error=1 ctest --preset tsan
  ./build-tsan/bench/table1_fifo --depth 3 --jobs 4 >/dev/null
  # Reduced soak: the HTTP thread, the workers, and the emit path all raced
  # under TSan (smaller job count -- TSan is ~10x slower).
  TSAN_OPTIONS=halt_on_error=1 \
    run_loadgen 40 ./build-tsan/examples/icbdd_serve \
    build-tsan/loadgen-summary.json
}

run_lint() {
  note "static-analysis gate: cppcheck + clang-tidy"
  cmake --preset dev >/dev/null
  if command -v cppcheck >/dev/null 2>&1; then
    cmake --build build --target cppcheck
  else
    echo "cppcheck not installed -- skipped (CI runs it)"
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake --build build --target tidy
  else
    echo "clang-tidy not installed -- skipped (CI runs it)"
  fi
}

run_lint_strict() {
  note "lint-strict gate: icbdd rules L1-L5 (hard fail, no tools needed)"
  python3 ci/lint/icbdd_lint.py --root .
  python3 tests/lint/lint_fixtures_test.py

  note "lint-strict gate: metric catalog generated from docs/observability.md"
  python3 ci/gen_metric_catalog.py --check

  note "lint-strict gate: clang thread-safety analysis (-Werror)"
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER=clang++ -DICBDD_WERROR=ON
    cmake --build build-tsa -j "${jobs}"
  else
    echo "clang++ not installed -- thread-safety build skipped (CI runs it)"
  fi

  note "lint-strict gate: cppcheck (hard fail)"
  if command -v cppcheck >/dev/null 2>&1; then
    cppcheck --version
    cmake --preset dev >/dev/null
    cmake --build build --target cppcheck
  else
    echo "cppcheck not installed -- skipped (CI runs it, pinned version)"
  fi
}

case "${what}" in
  release)  run_release; run_bench_json; run_svc; run_loadgen ;;
  sanitize) run_sanitize ;;
  tsan)     run_tsan ;;
  lint)     run_lint ;;
  lint-strict) run_lint_strict ;;
  bench)    run_bench_json ;;
  names)    run_test_names build-werror ;;
  svc)      run_svc ;;
  loadgen)  run_loadgen ;;
  all)      run_release; run_bench_json; run_svc; run_loadgen; run_sanitize;
            run_tsan; run_lint; run_lint_strict ;;
  *) echo "usage: $0 [release|sanitize|tsan|lint|lint-strict|bench|names|svc|" >&2
     echo "          loadgen|all]" >&2
     exit 2 ;;
esac

note "done"
