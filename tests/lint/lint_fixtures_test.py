#!/usr/bin/env python3
"""Fixture corpus driver for ci/lint/icbdd_lint.py.

Runs the lint in --fixture mode on every file under fixtures/ and asserts
the EXACT rule ids produced: bad fixtures must trip precisely their seeded
rule (no more, no less), good fixtures must be clean, and the suppression
fixture must report zero findings but a counted suppression.  Registered
with ctest as `lint_fixtures` (tests/CMakeLists.txt).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
LINT = ROOT / "ci" / "lint" / "icbdd_lint.py"
FIXTURES = HERE / "fixtures"

# fixture file -> exact multiset of rule ids it must produce.
CASES = {
    "l1_engine_io_bad.cpp": ["L1", "L1"],
    "l1_engine_io_good.cpp": [],
    "l2_safe_point_bad.cpp": ["L2", "L2"],
    "l2_safe_point_good.cpp": [],
    "l2_engine_run_bad.cpp": ["L2", "L2"],
    "l2_engine_run_good.cpp": [],
    "l3_node_escape_bad.hpp": ["L3", "L3"],
    "l3_node_escape_use_bad.cpp": ["L3"],
    "l3_node_escape_good.hpp": [],
    "l3_packed_word_bad.hpp": ["L3", "L3"],
    "l3_packed_use_bad.cpp": ["L3"],
    "l4_metric_bad.cpp": ["L4", "L4"],
    "l4_metric_good.cpp": [],
    "l4_histogram_bad.cpp": ["L4", "L4", "L4"],
    "l4_histogram_good.cpp": [],
    "l5_relaxed_bad.cpp": ["L5"],
    "l5_relaxed_good.cpp": [],
}

FINDING = re.compile(r"^.+?:\d+: (L[1-5]): ", re.M)


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINT), *args],
                          capture_output=True, text=True, check=False)


def main() -> int:
    failures: list[str] = []

    covered = {name for name in CASES} | {"suppressed.cpp"}
    on_disk = {p.name for p in FIXTURES.iterdir() if p.is_file()}
    for missing in sorted(covered - on_disk):
        failures.append(f"fixture listed but not on disk: {missing}")
    for unlisted in sorted(on_disk - covered):
        failures.append(f"fixture on disk but not asserted: {unlisted}")

    for name, expected in sorted(CASES.items()):
        proc = run_lint("--fixture", str(FIXTURES / name))
        got = FINDING.findall(proc.stdout)
        want_rc = 1 if expected else 0
        if sorted(got) != sorted(expected):
            failures.append(f"{name}: expected rules {expected}, got {got}\n"
                            f"--- lint output ---\n{proc.stdout}")
        elif proc.returncode != want_rc:
            failures.append(f"{name}: expected exit {want_rc}, "
                            f"got {proc.returncode}")

    # The escape hatch: finding suppressed, suppression counted.
    proc = run_lint("--fixture", str(FIXTURES / "suppressed.cpp"))
    if FINDING.findall(proc.stdout) or proc.returncode != 0:
        failures.append("suppressed.cpp: expected no findings / exit 0, got "
                        f"exit {proc.returncode}\n{proc.stdout}")
    elif "1 suppression" not in proc.stdout:
        failures.append("suppressed.cpp: summary does not count the "
                        f"suppression:\n{proc.stdout}")

    if failures:
        print(f"lint_fixtures: {len(failures)} failure(s)")
        for failure in failures:
            print(f"\nFAIL: {failure}")
        return 1
    print(f"lint_fixtures: {len(CASES) + 1} fixtures OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
